package runtime_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"prestigebft/internal/core"
	"prestigebft/internal/crypto"
	"prestigebft/internal/metrics"
	"prestigebft/internal/runtime"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

// TestHealthDocument pins the content of the /healthz document, which
// WaitHealthy's error message and operators' probes read.
func TestHealthDocument(t *testing.T) {
	// An address that refuses dials: a listener that has just closed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refusing := ln.Addr().String()
	ln.Close()

	for _, tc := range []struct {
		name     string
		run      bool // start the event loop and wait for its first sample
		deadPeer bool // keep sending to the refusing address
		draining bool
		ok       bool
		want     map[string]string // Detail key → substring of its value
		absent   []string          // Detail keys that must not be set
	}{
		{name: "before the first sample",
			want: map[string]string{"loop": "no liveness sample yet"}, absent: []string{"view", "height", "peers", "draining"}},
		{name: "sampled", run: true, ok: true,
			want: map[string]string{"view": "1", "height": "0"}, absent: []string{"loop", "peers", "draining"}},
		{name: "a peer refuses dials", run: true, deadPeer: true,
			want: map[string]string{"peers": refusing, "view": "1"}, absent: []string{"loop", "draining"}},
		{name: "draining", run: true, draining: true,
			want: map[string]string{"draining": "shutdown", "view": "1"}, absent: []string{"loop", "peers"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, serverKeys, _ := crypto.GenerateDeployment(3, 4, 1)
			tr := transport.NewServerTransport(1)
			t.Cleanup(tr.Close)
			rt := runtime.New(runtime.Config{
				Replica:   core.New(core.Config{ID: 1, N: 4, Keys: serverKeys[1], Registry: reg}),
				Peers:     map[types.ServerID]string{2: refusing},
				Transport: tr,
				Metrics:   metrics.NewRegistry(),
				Logf:      func(string, ...any) {},
			})
			t.Cleanup(rt.Stop)
			if tc.run {
				go rt.Run()
				awaitLoop(t, rt)
			}
			h := rt.Health(tc.draining)
			// A backoff window opens once a dial has failed and lapses
			// again, so keep the peer in use until the document shows it.
			for deadline := time.Now().Add(5 * time.Second); tc.deadPeer && h.Detail["peers"] == ""; h = rt.Health(tc.draining) {
				if time.Now().After(deadline) {
					t.Fatal("the refusing peer never showed as unreachable")
				}
				_ = tr.Send(refusing, &types.SyncReq{From: 1})
				time.Sleep(time.Millisecond)
			}
			if h.Ok != tc.ok || h.Draining != tc.draining {
				t.Errorf("ok=%v draining=%v, want ok=%v draining=%v (detail %v)", h.Ok, h.Draining, tc.ok, tc.draining, h.Detail)
			}
			for k, sub := range tc.want {
				if !strings.Contains(h.Detail[k], sub) || h.Detail[k] == "" {
					t.Errorf("detail[%q] = %q, want it to contain %q", k, h.Detail[k], sub)
				}
			}
			for _, k := range tc.absent {
				if v, set := h.Detail[k]; set {
					t.Errorf("detail[%q] = %q, want it unset", k, v)
				}
			}
		})
	}
}
