package liveharness

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"prestigebft/internal/metrics"
	"prestigebft/internal/types"
)

// scrapeClient bounds each admin-endpoint request; loopback admin servers
// answer in microseconds, so a second of headroom is generous.
var scrapeClient = &http.Client{Timeout: 2 * time.Second}

// ScrapeAll fetches /metrics from every live replica's admin endpoint over
// real HTTP — the same bytes a Prometheus server would ingest — and parses
// each into a Snapshot. Crashed slots are skipped (a dead process exposes
// nothing); a scrape error also drops the slot rather than failing the map,
// matching how a scraper treats a flapping target.
func (e *Env) ScrapeAll() map[types.ServerID]metrics.Snapshot {
	out := make(map[types.ServerID]metrics.Snapshot)
	for _, s := range e.servers {
		e.mu.Lock()
		crashed := e.crashed[s.id]
		e.mu.Unlock()
		if crashed || s.adm == nil {
			continue
		}
		snap, err := scrapeOne(s.adm.Addr())
		if err != nil {
			e.cfg.Logf("live: scrape S%d: %v", s.id, err)
			continue
		}
		out[s.id] = snap
	}
	return out
}

// scrapeOne performs one /metrics round trip.
func scrapeOne(addr string) (metrics.Snapshot, error) {
	resp, err := scrapeClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", addr, resp.StatusCode)
	}
	return metrics.Parse(body)
}

// AdminAddr returns a replica's admin endpoint ("host:port"), for callers
// that want to hit /metrics or /healthz directly.
func (e *Env) AdminAddr(id types.ServerID) string {
	s := e.servers[id-1]
	if s.adm == nil {
		return ""
	}
	return s.adm.Addr()
}

// WaitHealthy polls every non-crashed replica's /healthz until all answer
// 200 or healthTimeout (10 s) elapses, returning an error naming the
// stragglers. The scenario engine calls this between Start and the first
// injection so chaos only ever lands on a provably healthy cluster.
func (e *Env) WaitHealthy() error {
	deadline := time.Now().Add(healthTimeout)
	for {
		red := e.unhealthy()
		if len(red) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz still red after %v on: %s", healthTimeout, strings.Join(red, "; "))
		}
		select {
		case <-e.stop:
			return fmt.Errorf("environment closed while waiting for healthz")
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// unhealthy returns a description per replica whose /healthz is not green,
// sorted by server ID.
func (e *Env) unhealthy() []string {
	var red []string
	for _, s := range e.servers {
		e.mu.Lock()
		crashed := e.crashed[s.id]
		e.mu.Unlock()
		if crashed || s.adm == nil {
			continue
		}
		resp, err := scrapeClient.Get("http://" + s.adm.Addr() + "/healthz")
		if err != nil {
			red = append(red, fmt.Sprintf("S%d: %v", s.id, err))
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			red = append(red, fmt.Sprintf("S%d: %s", s.id, strings.TrimSpace(string(body))))
		}
	}
	sort.Strings(red)
	return red
}
