package jobs

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/symprop/symprop/internal/spsym"
)

// TestSubmitTensorPath: a tensor_path names a regular text or binary
// tensor file, and both load to the same tensor. Anything else is refused
// with ErrInvalidSpec, and the refusal of a file that is not a tensor
// quotes none of its bytes.
func TestSubmitTensorPath(t *testing.T) {
	m := newManager(t, Config{})
	dir := t.TempDir()
	x, err := spsym.Random(spsym.RandomOptions{Order: 3, Dim: 8, NNZ: 25, Seed: 4, Values: spsym.ValueNormal})
	if err != nil {
		t.Fatal(err)
	}
	text, bin := filepath.Join(dir, "x.tns"), filepath.Join(dir, "x.bin")
	if err := x.Save(text); err != nil {
		t.Fatal(err)
	}
	if err := x.SaveBinary(bin); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{text, bin} {
		id, err := m.Submit(Spec{TensorPath: path, Rank: 2, MaxIters: 2})
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		got, err := m.spool.LoadTensor(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Index, x.Index) || !reflect.DeepEqual(got.Values, x.Values) {
			t.Errorf("%s: spooled tensor differs from the file's", filepath.Base(path))
		}
	}

	const marker = "tensor-path-marker-5c1e0b"
	foreign := filepath.Join(dir, "hostname")
	if err := os.WriteFile(foreign, []byte(marker+"\nsecond line\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	for name, path := range map[string]string{
		"not a tensor": foreign,
		"directory":    dir,
		"missing":      filepath.Join(dir, "absent.tns"),
	} {
		_, err := m.Submit(Spec{TensorPath: path, Rank: 2})
		if !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: Submit err = %v, want ErrInvalidSpec", name, err)
		} else if strings.Contains(err.Error(), marker) {
			t.Errorf("%s: error quotes the file: %v", name, err)
		}
	}
}
