package netio

import "approxcode/internal/colstore"

// A DataNode server fronts any colstore.Backend; internal/colstore holds
// the two the repository ships (in-memory and file-backed).

// MemBackend is colstore's in-memory backend under its netio name.
type MemBackend = colstore.MemBackend

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend { return colstore.NewMemBackend() }
