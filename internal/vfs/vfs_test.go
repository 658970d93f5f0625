package vfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func stores(t *testing.T) map[string]Store {
	t.Helper()
	local, err := NewLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dist, err := NewDistributed(t.TempDir(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"local":       local,
		"distributed": dist,
		"memory":      NewMemory(),
	}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Write("a.bin", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			got, err := ReadAll(s, "a.bin")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "hello" {
				t.Errorf("read %q", got)
			}
		})
	}
}

func TestStoreOverwrite(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s.Write("x", []byte("one"))
			s.Write("x", []byte("two"))
			got, _ := ReadAll(s, "x")
			if string(got) != "two" {
				t.Errorf("read %q after overwrite", got)
			}
		})
	}
}

func TestStoreNotFound(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Open("missing"); !errors.Is(err, ErrNotFound) {
				t.Errorf("Open(missing) = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestStoreListSorted(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s.Write("charlie", nil)
			s.Write("alpha", nil)
			s.Write("bravo", nil)
			names, err := s.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 3 || names[0] != "alpha" || names[2] != "charlie" {
				t.Errorf("List = %v", names)
			}
		})
	}
}

func TestStoreRejectsBadNames(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for _, bad := range []string{"", "a/b", "../escape"} {
				if err := s.Write(bad, nil); err == nil {
					t.Errorf("Write(%q) should fail", bad)
				}
			}
		})
	}
}

func TestDistributedReplication(t *testing.T) {
	root := t.TempDir()
	d, err := NewDistributed(root, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write("obj", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// The object must exist on exactly 2 node directories.
	copies := 0
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(root, "node"+string(rune('0'+i)), "obj")); err == nil {
			copies++
		}
	}
	if copies != 2 {
		t.Errorf("%d replicas on disk, want 2", copies)
	}
}

func TestDistributedToleratesNodeLoss(t *testing.T) {
	root := t.TempDir()
	d, err := NewDistributed(root, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	d.Write("obj", []byte("survives"))
	// Destroy the home node's copy (whichever node has it first).
	for i := 0; i < 3; i++ {
		path := filepath.Join(root, "node"+string(rune('0'+i)), "obj")
		if _, err := os.Stat(path); err == nil {
			os.Remove(path)
			break
		}
	}
	got, err := ReadAll(d, "obj")
	if err != nil {
		t.Fatalf("read after node loss: %v", err)
	}
	if string(got) != "survives" {
		t.Errorf("read %q", got)
	}
}

func TestDistributedReplicasClamped(t *testing.T) {
	d, err := NewDistributed(t.TempDir(), 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.replicas != 2 {
		t.Errorf("replicas = %d, want clamped to 2", d.replicas)
	}
	if _, err := NewDistributed(t.TempDir(), 0, 1); err == nil {
		t.Error("zero nodes should fail")
	}
}

func TestMemorySize(t *testing.T) {
	m := NewMemory()
	m.Write("a", make([]byte, 10))
	m.Write("b", make([]byte, 5))
	if m.Size() != 15 {
		t.Errorf("Size = %d", m.Size())
	}
}

func TestMemoryIsolation(t *testing.T) {
	m := NewMemory()
	data := []byte("mutable")
	m.Write("a", data)
	data[0] = 'X'
	got, _ := ReadAll(m, "a")
	if string(got) != "mutable" {
		t.Error("memory store shares caller's buffer")
	}
}

// TestReadAllAllocatesTheObjectOnce: ReadAll sizes its buffer from the
// object's length on every store, so reading an N-byte object allocates
// about N bytes — not the doubling series of a buffer grown from 512.
func TestReadAllAllocatesTheObjectOnce(t *testing.T) {
	const n = 1<<20 + 123
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for name, s := range stores(t) {
		if err := s.Write("clip", data); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAll(s, "clip")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: ReadAll = %d bytes, %v; want the %d written", name, len(got), err, n)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := ReadAll(s, "clip"); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perRead := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if perRead > 1.1*n {
			t.Errorf("%s: reading %d bytes allocates %.0f bytes, want about %d", name, n, perRead, n)
		}
	}
}
