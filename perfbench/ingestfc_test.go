package main

import (
	"testing"

	"vrdag/internal/cluster"
)

// Whatever ports the nodes get, each client's first session is primaried
// on its entry node and the other two elsewhere.
func TestSessionNamesFixProxiedShare(t *testing.T) {
	for _, urls := range [][]string{
		{"http://127.0.0.1:40001", "http://127.0.0.1:40002", "http://127.0.0.1:40003"},
		{"http://127.0.0.1:35117", "http://127.0.0.1:46829", "http://127.0.0.1:33391"},
	} {
		ring := cluster.NewRing(urls)
		for c := range ingestClients {
			entry := urls[c%len(urls)]
			names := sessionNames(urls, c, entry)
			for j, name := range names {
				if local := ring.Owners(name, 1, nil)[0] == entry; local != (j == 0) {
					t.Errorf("%v client %d session %s: primary on entry node = %v", urls, c, name, local)
				}
			}
		}
	}
}
