package netio

import (
	"testing"

	"approxcode/internal/colstore"
	"approxcode/internal/colstore/colstoretest"
)

// TestClientConformance runs the column-backend contract end to end:
// a netio.Client against a loopback DataNode over a MemBackend. Buffer
// ownership, missing columns, deletes and invalid ranges must all
// survive the wire.
func TestClientConformance(t *testing.T) {
	srv, err := NewServer(ServerConfig{Backend: colstore.NewMemBackend()})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	routes := make(map[int]string, colstoretest.Nodes)
	for n := 0; n < colstoretest.Nodes; n++ {
		routes[n] = srv.Addr()
	}
	client, err := Dial(ClientConfig{Nodes: routes, Retry: RetryPolicy{Seed: 1}})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	colstoretest.Run(t, client)
}
