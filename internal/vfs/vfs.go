// Package vfs abstracts the storage the Visual Road driver stages input
// videos on for offline benchmarking. The paper's VCD "ensures each
// input video is available on the local file system … or a distributed
// file system (we currently support HDFS)". Two backends are provided:
// a plain local-directory store and a sharded multi-node store that
// simulates a distributed filesystem by hashing objects across per-node
// directories with replication.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/stablehash"
)

// Store is a flat object store keyed by name.
type Store interface {
	// Write stores an object, replacing any existing object of the
	// same name.
	Write(name string, data []byte) error
	// Open returns a reader over the named object.
	Open(name string) (io.ReadCloser, error)
	// List returns all object names, sorted.
	List() ([]string, error)
}

// ErrNotFound is reported when an object does not exist.
var ErrNotFound = errors.New("vfs: object not found")

func cleanName(name string) (string, error) {
	if name == "" || strings.Contains(name, "/") || strings.Contains(name, "..") {
		return "", fmt.Errorf("vfs: invalid object name %q", name)
	}
	return name, nil
}

// Local is a Store over a single directory — the "single node local
// file system" staging target.
type Local struct {
	dir string
}

// NewLocal creates (if needed) and wraps a directory.
func NewLocal(dir string) (*Local, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Local{dir: dir}, nil
}

// Write stores the object atomically (write to temp file, rename).
func (l *Local) Write(name string, data []byte) error {
	name, err := cleanName(name)
	if err != nil {
		return err
	}
	tmp := filepath.Join(l.dir, "."+name+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(l.dir, name))
}

// Open returns a reader over the object.
func (l *Local) Open(name string) (io.ReadCloser, error) {
	name, err := cleanName(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(l.dir, name))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return f, err
}

// List returns the stored object names.
func (l *Local) List() ([]string, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out, nil
}

// Distributed simulates an HDFS-style store: objects are hashed onto N
// node directories and replicated onto the following replica-1 nodes.
// Reads try replicas in order, tolerating missing copies (e.g. a
// "failed node" whose directory was removed).
type Distributed struct {
	nodes    []*Local
	replicas int
}

// NewDistributed creates a store over n node directories under root
// with the given replication factor (clamped to [1, n]).
func NewDistributed(root string, n, replicas int) (*Distributed, error) {
	if n < 1 {
		return nil, fmt.Errorf("vfs: need at least one node, got %d", n)
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > n {
		replicas = n
	}
	d := &Distributed{replicas: replicas}
	for i := 0; i < n; i++ {
		l, err := NewLocal(filepath.Join(root, fmt.Sprintf("node%d", i)))
		if err != nil {
			return nil, err
		}
		d.nodes = append(d.nodes, l)
	}
	return d, nil
}

// Nodes returns the number of nodes.
func (d *Distributed) Nodes() int { return len(d.nodes) }

func (d *Distributed) home(name string) int {
	return int(stablehash.String(name) % uint64(len(d.nodes)))
}

// Write stores the object on its home node and the next replicas-1
// nodes.
func (d *Distributed) Write(name string, data []byte) error {
	if _, err := cleanName(name); err != nil {
		return err
	}
	home := d.home(name)
	for r := 0; r < d.replicas; r++ {
		if err := d.nodes[(home+r)%len(d.nodes)].Write(name, data); err != nil {
			return err
		}
	}
	return nil
}

// Open reads from the first available replica.
func (d *Distributed) Open(name string) (io.ReadCloser, error) {
	if _, err := cleanName(name); err != nil {
		return nil, err
	}
	home := d.home(name)
	var lastErr error
	for r := 0; r < d.replicas; r++ {
		rc, err := d.nodes[(home+r)%len(d.nodes)].Open(name)
		if err == nil {
			return rc, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// List returns the union of object names across nodes.
func (d *Distributed) List() ([]string, error) {
	seen := map[string]bool{}
	for _, n := range d.nodes {
		names, err := n.List()
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			seen[name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// ReadAll is a convenience that opens and fully reads an object. When
// the reader knows the object's length — a Local file's Stat, a Memory
// object's bytes — the buffer is sized once, so reading an N-byte object
// allocates N bytes and not the 2N or so of a buffer doubled from 512.
func ReadAll(s Store, name string) ([]byte, error) {
	rc, err := s.Open(name)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	n := objectSize(rc)
	if n < 0 {
		return io.ReadAll(rc)
	}
	// One spare byte takes the read that reports EOF, as os.ReadFile
	// does; an object that grew since is read on by append.
	buf := make([]byte, 0, n+1)
	for {
		k, err := rc.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// objectSize is the length of the object r reads, or -1 when r does not
// know it.
func objectSize(r io.Reader) int {
	switch r := r.(type) {
	case *os.File:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return int(fi.Size())
		}
	case *memObject:
		return r.Len()
	}
	return -1
}
