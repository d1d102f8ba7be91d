package jobs

// The spool is the server's only durable state: one directory per job
// holding an atomically replaced JSON manifest, the job's tensor (copied
// in at admission so nothing outside the spool is ever needed again), the
// periodic SYMCKPT checkpoint, and the result factor. Every write that
// transitions state goes temp-file → sync → rename, the same discipline
// as internal/checkpoint, so a crash at any instant leaves either the
// previous manifest or the new one — never a torn file. Rescan is the
// crash-recovery entry point: it enumerates job directories, loads what
// it can, and reports unusable entries per job instead of refusing to
// start, because one corrupt manifest must not hold every other tenant's
// work hostage.

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/symprop/symprop/internal/checkpoint"
	"github.com/symprop/symprop/internal/spsym"
)

// Spool file names inside each job directory.
const (
	manifestFile = "job.json"
	tensorFile   = "tensor.tns"
	ckptFile     = "run.ckpt"
	resultFile   = "U.txt"
)

// Manifest is the durable record of one job: the spec as admitted plus
// everything the server must remember across a crash.
type Manifest struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
	// State is the job's last persisted lifecycle state. Rescan requeues
	// Queued and Running jobs (a Running manifest means the process died
	// mid-run) and leaves terminal ones for status queries.
	State State `json:"state"`
	// Workers is the resolved kernel parallelism — part of the resume
	// fingerprint, so it is fixed at admission, not re-derived from the
	// server config that happens to be live at resume time.
	Workers int `json:"workers"`
	// Attempt and Retries survive restarts so a crash-looping job still
	// exhausts its retry budget instead of retrying forever.
	Attempt int `json:"attempt"`
	Retries int `json:"retries"`
	// Error is the last run error (Failed/Canceled/Expired).
	Error string `json:"error,omitempty"`
	// Result summary for Succeeded jobs.
	Iters     int     `json:"iters,omitempty"`
	RelError  float64 `json:"rel_error,omitempty"`
	Converged bool    `json:"converged,omitempty"`

	EnqueuedAt time.Time `json:"enqueued_at"`
	StartedAt  time.Time `json:"started_at,omitempty"`
	FinishedAt time.Time `json:"finished_at,omitempty"`
}

// Spool is a server-owned job directory tree.
type Spool struct {
	dir string
}

// OpenSpool creates (if needed) and opens the spool root.
func OpenSpool(dir string) (*Spool, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobs: empty spool directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: open spool: %w", err)
	}
	return &Spool{dir: dir}, nil
}

// Dir returns the spool root.
func (s *Spool) Dir() string { return s.dir }

// JobDir returns the directory of one job.
func (s *Spool) JobDir(id string) string { return filepath.Join(s.dir, id) }

// CheckpointPath returns the job's snapshot path.
func (s *Spool) CheckpointPath(id string) string {
	return filepath.Join(s.JobDir(id), ckptFile)
}

// ResultPath returns the job's factor-output path.
func (s *Spool) ResultPath(id string) string {
	return filepath.Join(s.JobDir(id), resultFile)
}

// TensorPath returns the job's spooled tensor path.
func (s *Spool) TensorPath(id string) string {
	return filepath.Join(s.JobDir(id), tensorFile)
}

// NewJobID mints a spool-unique job identifier: a time prefix for
// human-sortable listings plus random bits for uniqueness across
// restarts (the spool may already hold jobs from prior processes).
func NewJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively impossible; fall back to the
		// clock alone rather than refusing admission.
		return fmt.Sprintf("j%016x", time.Now().UnixNano())
	}
	return fmt.Sprintf("j%011x-%s", time.Now().UnixMilli(), hex.EncodeToString(b[:]))
}

// CreateJob materializes a new job directory: tensor first, manifest
// last, so a crash mid-admission leaves a directory without a manifest —
// which Rescan reports and the caller may garbage-collect — never a
// manifest pointing at a missing tensor.
func (s *Spool) CreateJob(m *Manifest, x *spsym.Tensor) error {
	dir := s.JobDir(m.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("jobs: create job dir: %w", err)
	}
	if err := checkpoint.WriteFileAtomic(s.TensorPath(m.ID), func(f *os.File) error {
		return x.WriteBinary(f)
	}); err != nil {
		return fmt.Errorf("jobs: write tensor: %w", err)
	}
	return s.SaveManifest(m)
}

// SaveManifest atomically replaces the job's manifest.
func (s *Spool) SaveManifest(m *Manifest) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encode manifest: %w", err)
	}
	buf = append(buf, '\n')
	if err := checkpoint.WriteFileAtomic(filepath.Join(s.JobDir(m.ID), manifestFile), func(f *os.File) error {
		_, err := f.Write(buf)
		return err
	}); err != nil {
		return fmt.Errorf("jobs: write manifest: %w", err)
	}
	return nil
}

// LoadManifest reads and decodes one job's manifest.
func (s *Spool) LoadManifest(id string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(s.JobDir(id), manifestFile))
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(raw, m); err != nil {
		return nil, fmt.Errorf("jobs: manifest %s: %w", id, err)
	}
	if m.ID != id {
		return nil, fmt.Errorf("jobs: manifest in %s claims ID %q", s.JobDir(id), m.ID)
	}
	return m, nil
}

// LoadTensor reads the job's spooled tensor.
func (s *Spool) LoadTensor(id string) (*spsym.Tensor, error) {
	return spsym.Load(s.TensorPath(id))
}

// Remove deletes a job's directory (terminal jobs only; the Manager
// enforces that).
func (s *Spool) Remove(id string) error {
	return os.RemoveAll(s.JobDir(id))
}

// RescanIssue describes one spool entry Rescan could not turn into a
// job: a directory without a readable manifest, or garbage at the root.
type RescanIssue struct {
	Path string
	Err  error
}

// Rescan enumerates the spool and returns every job manifest it can
// load, sorted by ID (admission order, thanks to the time-prefixed IDs),
// plus the entries it had to skip. It never fails on a bad entry — only
// on an unreadable spool root.
func (s *Spool) Rescan() ([]*Manifest, []RescanIssue, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: rescan spool: %w", err)
	}
	var out []*Manifest
	var issues []RescanIssue
	for _, de := range ents {
		path := filepath.Join(s.dir, de.Name())
		if !de.IsDir() {
			// Foreign file at the spool root: report, don't touch.
			issues = append(issues, RescanIssue{Path: path,
				Err: fmt.Errorf("jobs: not a job directory")})
			continue
		}
		if strings.ContainsAny(de.Name(), "/\\") {
			continue
		}
		m, err := s.LoadManifest(de.Name())
		if err != nil {
			issues = append(issues, RescanIssue{Path: path, Err: err})
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, issues, nil
}
