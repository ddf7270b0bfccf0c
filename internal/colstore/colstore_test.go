package colstore_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"approxcode/internal/chaos"
	"approxcode/internal/colstore"
	"approxcode/internal/colstore/colstoretest"
)

func TestMemBackendConformance(t *testing.T) {
	colstoretest.Run(t, colstore.NewMemBackend())
}

func TestFileBackendConformance(t *testing.T) {
	fb, err := colstore.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	colstoretest.Run(t, fb)
}

// TestFileBackendRestart: a fresh backend over the same directory sees
// the columns, lists the nodes it holds, and reads a legacy empty
// column file (how deletes used to be stored) as missing.
func TestFileBackendRestart(t *testing.T) {
	dir := t.TempDir()
	fb, err := colstore.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	col := []byte("0123456789abcdef")
	if err := fb.WriteColumn(1, "video/a", 3, col); err != nil {
		t.Fatal(err)
	}
	if err := fb.WriteColumn(4, "video/a", 0, col); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "n1", "766964656f2f61.7"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	fb2, err := colstore.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fb2.ReadColumn(1, "video/a", 3); err != nil || !bytes.Equal(got, col) {
		t.Fatalf("after restart: %q %v", got, err)
	}
	if _, err := fb2.ReadColumn(1, "video/a", 7); !errors.Is(err, chaos.ErrColumnMissing) {
		t.Fatalf("empty legacy column file: %v, want ErrColumnMissing", err)
	}
	if _, err := fb2.ReadColumnAt(1, "video/a", 7, 0, 0); !errors.Is(err, chaos.ErrColumnMissing) {
		t.Fatalf("empty legacy column file, partial read: %v, want ErrColumnMissing", err)
	}
	nodes, err := fb2.Nodes()
	if err != nil || len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 4 {
		t.Fatalf("Nodes: %v %v", nodes, err)
	}
}

// TestMemBackendCapabilities covers the store-facing extras: byte
// counting, dropping a node, and the export behind snapshots.
func TestMemBackendCapabilities(t *testing.T) {
	m := colstore.NewMemBackend()
	for stripe, size := range []int{10, 20, 30} {
		if err := m.WriteColumn(0, "obj", stripe, bytes.Repeat([]byte{byte(stripe + 1)}, size)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WriteColumn(1, "obj", 1, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteColumn(0, "obj", 1, nil); err != nil { // delete stripe 1
		t.Fatal(err)
	}
	if got := m.StoredBytes(); got != 10+30+3 {
		t.Fatalf("StoredBytes = %d, want 43", got)
	}

	exp := m.ExportNode(0)
	if len(exp["obj"]) != 3 || exp["obj"][1] != nil || len(exp["obj"][2]) != 30 {
		t.Fatalf("ExportNode(0) = %v", exp)
	}
	if m.ExportNode(7) != nil {
		t.Fatal("ExportNode of a node never written is not nil")
	}

	m.DropNode(0)
	if _, err := m.ReadColumn(0, "obj", 0); !errors.Is(err, chaos.ErrColumnMissing) {
		t.Fatalf("dropped node still serves: %v", err)
	}
	if got := m.StoredBytes(); got != 3 {
		t.Fatalf("StoredBytes after drop = %d, want 3", got)
	}
}
