package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// SymEig computes the full eigendecomposition of a symmetric matrix:
// A·V = V·diag(values), with eigenvalues sorted descending and eigenvectors
// in the corresponding columns of V. A is not modified; symmetry is assumed
// (only one triangle participates after tridiagonalization).
//
// The implementation is the classic two-phase dense path — Householder
// tridiagonalization followed by implicit-shift QL with eigenvector
// accumulation — which is what LAPACK's syev does structurally. HOOI's SVD
// step (paper Algorithm 3, line 4) runs on top of this via the Gram matrix.
func SymEig(a *Matrix) (values []float64, vectors *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("linalg: SymEig needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if n == 0 {
		return nil, NewMatrix(0, 0), nil
	}
	z := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	tridiagonalize(z, d, e)
	// QL accumulates into the transpose, so each rotation walks two
	// contiguous rows instead of two stride-n columns.
	transposeInPlace(z)
	if err := tqlImplicit(z, d, e); err != nil {
		return nil, nil, err
	}
	return d, sortEigenpairsDescending(d, z), nil
}

// transposeInPlace transposes the square matrix m.
func transposeInPlace(m *Matrix) {
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Data[i*n+j], m.Data[j*n+i] = m.Data[j*n+i], m.Data[i*n+j]
		}
	}
}

// tridiagonalize reduces the symmetric matrix held in z to tridiagonal form
// with Householder reflections, accumulating the orthogonal transform in z.
// On return, d holds the diagonal and e[1..n-1] the subdiagonal.
// (Householder reduction in the style of EISPACK's tred2.)
func tridiagonalize(z *Matrix, d, e []float64) {
	n := z.Rows
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(z.At(i, k))
			}
			if scale == 0 {
				e[i] = z.At(i, l)
			} else {
				for k := 0; k <= l; k++ {
					z.Set(i, k, z.At(i, k)/scale)
					h += z.At(i, k) * z.At(i, k)
				}
				f := z.At(i, l)
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				z.Set(i, l, f-g)
				f = 0
				for j := 0; j <= l; j++ {
					z.Set(j, i, z.At(i, j)/h)
					g = 0
					for k := 0; k <= j; k++ {
						g += z.At(j, k) * z.At(i, k)
					}
					for k := j + 1; k <= l; k++ {
						g += z.At(k, j) * z.At(i, k)
					}
					e[j] = g / h
					f += e[j] * z.At(i, j)
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = z.At(i, j)
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						z.Set(j, k, z.At(j, k)-(f*e[k]+g*z.At(i, k)))
					}
				}
			}
		} else {
			e[i] = z.At(i, l)
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	// Accumulate transformations.
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				var g float64
				for k := 0; k <= l; k++ {
					g += z.At(i, k) * z.At(k, j)
				}
				for k := 0; k <= l; k++ {
					z.Set(k, j, z.At(k, j)-g*z.At(k, i))
				}
			}
		}
		d[i] = z.At(i, i)
		z.Set(i, i, 1)
		for j := 0; j <= l; j++ {
			z.Set(j, i, 0)
			z.Set(i, j, 0)
		}
	}
}

// tqlImplicit diagonalizes the tridiagonal matrix (d, e) with the implicit
// shift QL algorithm, accumulating rotations into zt's rows: zt is the
// transpose of tql2's z, so row k holds the eigenvector of d[k].
// (In the style of EISPACK's tql2.)
func tqlImplicit(zt *Matrix, d, e []float64) error {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	// Matrix-scale floor for the deflation test: with large null spaces
	// (e.g. Gram matrices of very low-rank unfoldings) neighbouring
	// diagonal entries can both be ~0, making the purely relative test
	// |e| <= eps*(|d_m|+|d_m+1|) unattainable. An absolute tolerance at
	// eps * ||T||_inf deflates those blocks, as LAPACK's stebz-style
	// criteria do.
	var anorm float64
	for i := 0; i < n; i++ {
		v := math.Abs(d[i]) + math.Abs(e[i])
		if v > anorm {
			anorm = v
		}
	}
	for l := 0; l < n; l++ {
		iter := 0
		for {
			const eps = 2.220446049250313e-16 // float64 machine epsilon
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= eps*dd || math.Abs(e[m]) <= eps*anorm {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > 100 {
				return errors.New("linalg: eigensolver failed to converge after 100 iterations")
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				zi := zt.Row(i)
				zi1 := zt.Row(i + 1)[:len(zi)]
				for k, zik := range zi {
					f = zi1[k]
					zi1[k] = s*zik + c*f
					zi[k] = c*zik - s*f
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// sortEigenpairsDescending stably sorts d descending and returns the
// matching eigenvectors as the columns of a new matrix, reading the
// eigenvector of d[k] from row k of vt.
func sortEigenpairsDescending(d []float64, vt *Matrix) *Matrix {
	n := len(d)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return d[order[a]] > d[order[b]] })
	newD := make([]float64, n)
	v := NewMatrix(vt.Cols, n)
	for newCol, oldRow := range order {
		newD[newCol] = d[oldRow]
		for i, x := range vt.Row(oldRow) {
			v.Data[i*n+newCol] = x
		}
	}
	copy(d, newD)
	return v
}

// JacobiEig computes the eigendecomposition of a symmetric matrix with the
// cyclic Jacobi rotation method. It is slower than SymEig but short enough
// to audit by eye; the test suite uses it as an independent oracle, and
// SymEig falls back to it if QL fails to converge.
func JacobiEig(a *Matrix, maxSweeps int) (values []float64, vectors *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("linalg: JacobiEig needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	w := a.Clone()
	vt := Identity(n) // transposed accumulator, as in tqlImplicit
	if maxSweeps <= 0 {
		maxSweeps = 64
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-28 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if apq == 0 {
					continue
				}
				theta := (w.At(q, q) - w.At(p, p)) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					wkp, wkq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk, wqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				vp, vq := vt.Row(p), vt.Row(q)
				for k := 0; k < n; k++ {
					vkp, vkq := vp[k], vq[k]
					vp[k] = c*vkp - s*vkq
					vq[k] = s*vkp + c*vkq
				}
			}
		}
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = w.At(i, i)
	}
	return d, sortEigenpairsDescending(d, vt), nil
}

// TopEigenvectors returns the eigenvectors of the symmetric matrix a
// belonging to its r algebraically largest eigenvalues, as the columns of
// an a.Rows x r matrix. This implements the "R leading left singular
// vectors via SVD" step of HOOI through the Gram-matrix route.
func TopEigenvectors(a *Matrix, r int) (*Matrix, error) {
	if r > a.Rows {
		return nil, fmt.Errorf("linalg: requested %d eigenvectors from a %d-dim matrix", r, a.Rows)
	}
	_, v, err := SymEig(a)
	if err != nil {
		// Jacobi is slower but unconditionally convergent for symmetric input.
		_, v, err = JacobiEig(a, 0)
		if err != nil {
			return nil, err
		}
	}
	out := NewMatrix(a.Rows, r)
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i), v.Row(i)[:r])
	}
	return out, nil
}
