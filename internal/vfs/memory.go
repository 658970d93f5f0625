package vfs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Memory is an in-memory Store, used by tests and by experiments that
// generate transient datasets.
type Memory struct {
	mu      sync.RWMutex
	objects map[string][]byte
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{objects: make(map[string][]byte)}
}

// Write stores a copy of data under name.
func (m *Memory) Write(name string, data []byte) error {
	if _, err := cleanName(name); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.objects[name] = append([]byte(nil), data...)
	return nil
}

// Open returns a reader over the named object.
func (m *Memory) Open(name string) (io.ReadCloser, error) {
	if _, err := cleanName(name); err != nil {
		return nil, err
	}
	m.mu.RLock()
	data, ok := m.objects[name]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return &memObject{bytes.NewReader(data)}, nil
}

// memObject reads a Memory object; ReadAll sizes its buffer by Len.
type memObject struct{ *bytes.Reader }

func (*memObject) Close() error { return nil }

// List returns all object names, sorted.
func (m *Memory) List() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.objects))
	for name := range m.objects {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Size returns the total stored bytes.
func (m *Memory) Size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, d := range m.objects {
		n += len(d)
	}
	return n
}
