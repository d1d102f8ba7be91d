//go:build linux || darwin || freebsd || netbsd || openbsd

package jobs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestSubmitTensorPathFIFO: a tensor_path naming a FIFO with no writer is
// refused at once instead of blocking the submitting handler.
func TestSubmitTensorPathFIFO(t *testing.T) {
	m := newManager(t, Config{})
	fifo := filepath.Join(t.TempDir(), "x.tns")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.Submit(Spec{TensorPath: fifo, Rank: 2})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrInvalidSpec) {
			t.Fatalf("Submit err = %v, want ErrInvalidSpec", err)
		}
	case <-time.After(time.Second):
		// Release the blocked reader with an empty write side, so the
		// failing test does not leak it.
		if w, err := os.OpenFile(fifo, os.O_WRONLY, 0); err == nil {
			w.Close()
		}
		<-done
		t.Fatal("Submit blocked on a FIFO tensor_path for 1 s")
	}
}
