// Package colstore holds the column backends that own erasure-code
// column bytes, in process or behind a netio DataNode: MemBackend (in
// memory, the store's default) and FileBackend (one file per column,
// survives restarts). Both follow the whole chaos.NodeIO contract,
// which colstoretest checks: a write borrows the caller's buffer, a
// read returns a buffer the caller owns, a column never written or
// deleted by a zero-length write reads as chaos.ErrColumnMissing, and
// a ReadColumnAt range outside the column fails with chaos.ErrInvalid.
//
// MemBackend also offers the optional capabilities the store finds by
// type assertion: DropNode, StoredBytes and ExportNode.
package colstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"approxcode/internal/chaos"
)

// Backend is a column store that also serves partial reads, as both
// backends here and a netio.Client do. A DataNode serves any Backend.
type Backend interface {
	chaos.NodeIO
	chaos.PartialReader
}

// maxNodes bounds node indexes: MemBackend keeps a fixed node table,
// and a DataNode decodes the index from the wire, so an absurd index
// must be refused rather than allocated.
const maxNodes = 1 << 12

func checkColumn(node, stripe int) error {
	if node < 0 || node >= maxNodes || stripe < 0 {
		return fmt.Errorf("colstore: %w: column %d of node %d", chaos.ErrInvalid, stripe, node)
	}
	return nil
}

func missing(node int, object string, stripe int) error {
	return fmt.Errorf("%w: node %d %q/%d", chaos.ErrColumnMissing, node, object, stripe)
}

// checkRange validates a partial read of n bytes at off from a column
// of size bytes. It never computes off+n, which can wrap negative and
// sneak past the bound into a panicking slice.
func checkRange(off, n int, size int64) error {
	if off < 0 || n < 0 || int64(off) > size || int64(n) > size-int64(off) {
		return fmt.Errorf("colstore: %w: %d bytes at offset %d outside column of %d bytes",
			chaos.ErrInvalid, n, off, size)
	}
	return nil
}

// colKey names one column on a node.
type colKey struct {
	object string
	stripe int
}

type memNode struct {
	mu   sync.RWMutex
	cols map[colKey][]byte
}

// MemBackend is the in-memory column store. Each node has its own lock
// and the node table is lock-free, so operations on different nodes
// never contend.
type MemBackend struct {
	nodes [maxNodes]atomic.Pointer[memNode]
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend { return &MemBackend{} }

// node returns the node's table, or nil when it has never been written
// and create is false.
func (m *MemBackend) node(i int, create bool) *memNode {
	if i < 0 || i >= maxNodes {
		return nil
	}
	nd := m.nodes[i].Load()
	if nd == nil && create {
		m.nodes[i].CompareAndSwap(nil, &memNode{cols: make(map[colKey][]byte)})
		nd = m.nodes[i].Load()
	}
	return nd
}

// lookup runs fn on the stored column under the node's read lock.
func (m *MemBackend) lookup(node int, object string, stripe int, fn func(col []byte) ([]byte, error)) ([]byte, error) {
	if err := checkColumn(node, stripe); err != nil {
		return nil, err
	}
	if nd := m.node(node, false); nd != nil {
		nd.mu.RLock()
		defer nd.mu.RUnlock()
		if col, ok := nd.cols[colKey{object, stripe}]; ok {
			return fn(col)
		}
	}
	return nil, missing(node, object, stripe)
}

// ReadColumn implements chaos.NodeIO.
func (m *MemBackend) ReadColumn(node int, object string, stripe int) ([]byte, error) {
	return m.lookup(node, object, stripe, func(col []byte) ([]byte, error) {
		return append([]byte(nil), col...), nil
	})
}

// ReadColumnAt implements chaos.PartialReader: only the range is
// copied out.
func (m *MemBackend) ReadColumnAt(node int, object string, stripe, off, n int) ([]byte, error) {
	return m.lookup(node, object, stripe, func(col []byte) ([]byte, error) {
		if err := checkRange(off, n, int64(len(col))); err != nil {
			return nil, err
		}
		return append([]byte(nil), col[off:off+n]...), nil
	})
}

// WriteColumn implements chaos.NodeIO. The one copy a write makes is
// taken before the node lock, so a large column never holds up readers
// of the node.
func (m *MemBackend) WriteColumn(node int, object string, stripe int, data []byte) error {
	if err := checkColumn(node, stripe); err != nil {
		return err
	}
	nd := m.node(node, len(data) > 0)
	if nd == nil {
		return nil // deleting from a node never written
	}
	var cp []byte
	if len(data) > 0 {
		cp = append([]byte(nil), data...)
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if cp == nil {
		delete(nd.cols, colKey{object, stripe})
	} else {
		nd.cols[colKey{object, stripe}] = cp
	}
	return nil
}

// DropNode wipes every column of the node (a crashed node).
func (m *MemBackend) DropNode(node int) {
	nd := m.node(node, false)
	if nd == nil {
		return
	}
	nd.mu.Lock()
	nd.cols = make(map[colKey][]byte)
	nd.mu.Unlock()
}

// StoredBytes counts the column bytes held across all nodes.
func (m *MemBackend) StoredBytes() int64 {
	var total int64
	for i := range m.nodes {
		nd := m.nodes[i].Load()
		if nd == nil {
			continue
		}
		nd.mu.RLock()
		for _, col := range nd.cols {
			total += int64(len(col))
		}
		nd.mu.RUnlock()
	}
	return total
}

// ExportNode returns the node's columns by object, indexed by stripe,
// nil where a stripe has none (the store's snapshot format). Stored
// columns are never mutated in place (a write replaces the slice), so
// the result shares them without a copy.
func (m *MemBackend) ExportNode(node int) map[string][][]byte {
	nd := m.node(node, false)
	if nd == nil {
		return nil
	}
	nd.mu.RLock()
	defer nd.mu.RUnlock()
	out := make(map[string][][]byte)
	for k, col := range nd.cols {
		cols := out[k.object]
		for len(cols) <= k.stripe {
			cols = append(cols, nil)
		}
		cols[k.stripe] = col
		out[k.object] = cols
	}
	return out
}

// FileBackend stores each column as a file under
//
//	<root>/n<node>/<hex(object)>.<stripe>
//
// written by WriteFileAtomic, so a torn process death never leaves a
// half column visible under the final name. Object names are
// hex-encoded in file names, so arbitrary names (slashes, dots, NUL)
// are safe.
type FileBackend struct {
	root string
}

// NewFileBackend creates (if needed) the root directory and returns a
// file-backed NodeIO.
func NewFileBackend(root string) (*FileBackend, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("colstore: create backend root: %w", err)
	}
	return &FileBackend{root: root}, nil
}

func (f *FileBackend) columnPath(node int, object string, stripe int) (string, error) {
	if err := checkColumn(node, stripe); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%x.%d", object, stripe)
	return filepath.Join(f.root, "n"+strconv.Itoa(node), name), nil
}

// ReadColumn implements chaos.NodeIO. An empty file reads as missing:
// older DataNodes recorded a deleted column that way.
func (f *FileBackend) ReadColumn(node int, object string, stripe int) ([]byte, error) {
	path, err := f.columnPath(node, object, stripe)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) || (err == nil && len(data) == 0) {
		return nil, missing(node, object, stripe)
	}
	if err != nil {
		return nil, fmt.Errorf("colstore: read column: %w", err)
	}
	return data, nil
}

// ReadColumnAt implements chaos.PartialReader without reading the whole
// column: one pread of the requested range.
func (f *FileBackend) ReadColumnAt(node int, object string, stripe, off, n int) ([]byte, error) {
	path, err := f.columnPath(node, object, stripe)
	if err != nil {
		return nil, err
	}
	fh, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, missing(node, object, stripe)
	}
	if err != nil {
		return nil, fmt.Errorf("colstore: open column: %w", err)
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		return nil, fmt.Errorf("colstore: stat column: %w", err)
	}
	if st.Size() == 0 {
		return nil, missing(node, object, stripe)
	}
	if err := checkRange(off, n, st.Size()); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if _, err := fh.ReadAt(out, int64(off)); err != nil {
		return nil, fmt.Errorf("colstore: read column range: %w", err)
	}
	return out, nil
}

// WriteColumn implements chaos.NodeIO. A zero-length write removes the
// column's file.
func (f *FileBackend) WriteColumn(node int, object string, stripe int, data []byte) error {
	path, err := f.columnPath(node, object, stripe)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("colstore: delete column: %w", err)
		}
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("colstore: create node dir: %w", err)
	}
	if err := WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("colstore: write column: %w", err)
	}
	return nil
}

// Nodes lists the node indexes that have a directory under the root,
// sorted: a restarted DataNode uses this to re-register what it holds.
func (f *FileBackend) Nodes() ([]int, error) {
	entries, err := os.ReadDir(f.root)
	if err != nil {
		return nil, fmt.Errorf("colstore: list backend root: %w", err)
	}
	var nodes []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rest, ok := strings.CutPrefix(e.Name(), "n")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(rest)
		if err != nil || n < 0 {
			continue
		}
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	return nodes, nil
}

// WriteFileAtomic writes data to path via a synced temp file in the
// same directory plus rename, so path is always either absent, the old
// content, or the complete new content — never a torn mix. It is the
// one write-publish helper of the storage stack: columns, snapshots and
// the journal header all go through it.
func WriteFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	if serr := tmp.Sync(); werr == nil {
		werr = serr
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmpName) // best-effort temp cleanup; werr is the real failure
		return werr
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	return nil
}
