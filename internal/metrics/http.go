package metrics

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler serves the registry's exposition document, the body Prometheus
// (or liveharness's scraper) fetches from /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(r.Gather())
	})
}

// Health is the /healthz document. Ok folds every component check together;
// the detail map names each check so operators (and the live harness) can
// see which one is red.
type Health struct {
	Ok       bool              `json:"ok"`
	Draining bool              `json:"draining,omitempty"`
	Detail   map[string]string `json:"detail,omitempty"`
}

// HealthFunc produces the current health snapshot on each request.
type HealthFunc func() Health

// HealthHandler serves the health snapshot as JSON: 200 when Ok, 503
// otherwise (including while draining), so load-balancer-style probes work
// with no body parsing.
func HealthHandler(fn HealthFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		h := fn()
		w.Header().Set("Content-Type", "application/json")
		if !h.Ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(h)
	})
}

// AdminServer is the /metrics + /healthz + /debug/pprof HTTP listener a
// replica exposes on its admin port.
type AdminServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeAdmin binds addr (e.g. "127.0.0.1:0") and serves /metrics from reg,
// /healthz from health, and the runtime profiles under /debug/pprof/ (the
// way to profile a live replica: `go tool pprof
// http://<admin>/debug/pprof/profile?seconds=15`) in a background goroutine.
// Callers own Close.
func ServeAdmin(addr string, reg *Registry, health HealthFunc) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/healthz", HealthHandler(health))
	mux.HandleFunc("/debug/pprof/", pprof.Index) // also serves heap, goroutine, allocs, ...
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &AdminServer{ln: ln, srv: srv}, nil
}

// Addr is the bound listen address (resolves ":0" to the real port).
func (a *AdminServer) Addr() string { return a.ln.Addr().String() }

// Close stops the listener and any in-flight handlers.
func (a *AdminServer) Close() error { return a.srv.Close() }
