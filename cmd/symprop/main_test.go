package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/symprop/symprop/internal/spsym"
)

func tensorFile(t *testing.T) string {
	t.Helper()
	x, err := spsym.Random(spsym.RandomOptions{Order: 3, Dim: 12, NNZ: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.tns")
	if err := x.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunInfo(t *testing.T) {
	if err := runInfo([]string{tensorFile(t)}); err != nil {
		t.Fatal(err)
	}
	if err := runInfo([]string{}); err == nil {
		t.Error("missing file argument should fail")
	}
	if err := runInfo([]string{"/nonexistent/x.tns"}); err == nil {
		t.Error("missing file should fail")
	}
}

func TestRunDecompose(t *testing.T) {
	path := tensorFile(t)
	dir := t.TempDir()
	uOut := filepath.Join(dir, "u.txt")
	traceOut := filepath.Join(dir, "trace.csv")
	err := runDecompose(context.Background(), []string{
		"-rank", "3", "-iters", "5", "-algo", "hoqri",
		"-out", uOut, "-convergence", traceOut, path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(uOut); err != nil {
		t.Errorf("factor file not written: %v", err)
	}
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	if len(data) == 0 {
		t.Error("trace file empty")
	}
	// -shards is deprecated and ignored, but old command lines must parse.
	if err := runDecompose(context.Background(), []string{"-rank", "2", "-algo", "hooi", "-iters", "2", "-shards", "4", path}); err != nil {
		t.Fatal(err)
	}
	if err := runDecompose(context.Background(), []string{"-rank", "2", "-algo", "hooi-randomized", "-iters", "2", path}); err != nil {
		t.Fatal(err)
	}
	if err := runDecompose(context.Background(), []string{"-rank", "2", "-algo", "bogus", path}); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

// TestRunDecomposeBinaryTensor: the commands read the binary format the
// library writes, and decompose -out writes the same factor bytes from the
// binary and the text copy of one tensor.
func TestRunDecomposeBinaryTensor(t *testing.T) {
	txt := tensorFile(t)
	x, err := spsym.Load(txt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "x.bin")
	if err := x.SaveBinary(bin); err != nil {
		t.Fatal(err)
	}
	if err := runInfo([]string{bin}); err != nil {
		t.Fatal(err)
	}
	var files [][]byte
	for i, path := range []string{txt, bin} {
		out := filepath.Join(dir, fmt.Sprintf("u%d.txt", i))
		if err := runDecompose(context.Background(), []string{"-rank", "3", "-iters", "3", "-workers", "2", "-out", out, path}); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, b)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Error("decompose wrote different factor files for the text and the binary copy of one tensor")
	}
}

func TestRunDecomposeCheckpointResume(t *testing.T) {
	path := tensorFile(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	straight := filepath.Join(dir, "straight.csv")
	resumed := filepath.Join(dir, "resumed.csv")
	common := []string{"-rank", "3", "-algo", "hooi", "-tol", "0", "-seed", "7", "-workers", "2"}

	args := append(append([]string{}, common...), "-iters", "8", "-convergence", straight, path)
	if err := runDecompose(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	args = append(append([]string{}, common...),
		"-iters", "3", "-checkpoint", ckpt, "-checkpoint-every", "1", path)
	if err := runDecompose(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	args = append(append([]string{}, common...),
		"-iters", "8", "-checkpoint", ckpt, "-resume", "-convergence", resumed, path)
	if err := runDecompose(context.Background(), args); err != nil {
		t.Fatal(err)
	}

	want, err := os.ReadFile(straight)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Errorf("resumed trace differs from straight run:\nstraight:\n%s\nresumed:\n%s", want, got)
	}
}

func TestRunTTMcAndCP(t *testing.T) {
	path := tensorFile(t)
	if err := runTTMc([]string{"-rank", "3", path}); err != nil {
		t.Fatal(err)
	}
	if err := runCP([]string{"-rank", "2", "-iters", "5", path}); err != nil {
		t.Fatal(err)
	}
	uOut := filepath.Join(t.TempDir(), "cpu.txt")
	if err := runCP([]string{"-rank", "2", "-iters", "3", "-out", uOut, path}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(uOut); err != nil {
		t.Errorf("CP factor not written: %v", err)
	}
}

// TestRunCPWorkersFixBits: with -workers set, the factor file's bytes do
// not depend on GOMAXPROCS. The tensor has normal values, so a different
// worker count would reorder the MTTKRP's sums and show in the bits.
func TestRunCPWorkersFixBits(t *testing.T) {
	x, err := spsym.Random(spsym.RandomOptions{Order: 3, Dim: 40, NNZ: 400, Seed: 9, Values: spsym.ValueNormal})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "x.tns")
	if err := x.Save(path); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var files [][]byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		out := filepath.Join(dir, fmt.Sprintf("u%d.txt", procs))
		if err := runCP([]string{"-rank", "3", "-iters", "20", "-tol", "0", "-workers", "2", "-out", out, path}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, b)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Error("cp -workers 2 wrote different factor files under GOMAXPROCS 1 and 4")
	}
}
