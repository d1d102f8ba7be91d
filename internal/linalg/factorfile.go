package linalg

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WriteFactor writes u in the factor-file text format that the symprop
// CLI's -out flag and the job server's result endpoint share: a
// "% symprop factor matrix R x C" header line, then one line per row of
// space-separated entries. Each entry is the shortest decimal that parses
// back to the same float64 (strconv 'g', -1), so two bit-identical factors
// give byte-identical files and a byte comparison of two files compares
// bits.
func WriteFactor(w io.Writer, u *Matrix) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%% symprop factor matrix %d x %d\n", u.Rows, u.Cols)
	var num []byte
	for i := 0; i < u.Rows; i++ {
		for k, v := range u.Row(i) {
			if k > 0 {
				bw.WriteByte(' ')
			}
			num = strconv.AppendFloat(num[:0], v, 'g', -1, 64)
			bw.Write(num)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
