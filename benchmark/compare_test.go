package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	tps := metricDef{"tps", "tx/s", "higher", 0.10}
	p50 := metricDef{"p50_ms", "ms", "lower", 0.10}
	steady := func(centre float64) []float64 {
		return []float64{centre * 0.99, centre, centre * 1.01, centre * 0.995, centre * 1.005, centre, centre * 1.01, centre * 0.99, centre, centre * 1.002}
	}
	noisy := []float64{700, 1300, 900, 1200, 800, 1100, 1000, 600, 1400, 1000}
	for _, tc := range []struct {
		name           string
		m              metricDef
		parent, change []float64
		want           string
	}{
		{"same commit twice", tps, steady(4000), steady(4010), verdictOK},
		{"throughput up is never a regression", tps, steady(4000), steady(5000), verdictOK},
		{"throughput down 5% is inside the bound", tps, steady(4000), steady(3800), verdictOK},
		{"throughput down 15%", tps, steady(4000), steady(3400), verdictRegressed},
		{"latency up 15%", p50, steady(10), steady(11.5), verdictRegressed},
		{"latency down", p50, steady(10), steady(8), verdictOK},
		{"parent too noisy to tell", tps, noisy, steady(1000), verdictUnresolved},
		{"change too noisy to tell, even when far worse", tps, steady(2000), noisy, verdictUnresolved},
		{"one run has no spread", tps, []float64{4000}, steady(4000), verdictUnresolved},
		{"missing metric", tps, nil, nil, verdictUnresolved},
	} {
		if got, _ := verdict(tc.m, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	if _, worse := verdict(tps, steady(4000), steady(3400)); worse < 0.149 || worse > 0.151 {
		t.Errorf("worse-by for a 15%% throughput drop = %v, want 0.15", worse)
	}
}

func TestParseResultTakesLastLine(t *testing.T) {
	out := []byte("benchmark: chatter\n  tps 1 tx/s\n" +
		`{"correct":true,"attempted":10,"failed":0,"metrics":{"tps":{"value":1.5,"unit":"tx/s"}}}` + "\n")
	res, err := parseResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 10 || res.Metrics["tps"].Value != 1.5 {
		t.Errorf("parsed %+v", res)
	}
	if _, err := parseResult([]byte("no result here\n")); err == nil {
		t.Error("chatter accepted as a result")
	}
}

// TestContractMatchesCode keeps BENCHMARK.json, the machine-readable
// contract at the repo root, equal to the tables this package scores by.
func TestContractMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var contract struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if contract.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", contract.RunSeconds, defaultSeconds)
	}
	var gated []workload
	for _, w := range workloads {
		if !w.byHand {
			gated = append(gated, w)
		}
	}
	if len(contract.Workloads) != len(gated) {
		t.Fatalf("%d workloads in the contract, %d in code", len(contract.Workloads), len(gated))
	}
	for i, w := range gated {
		if got := contract.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: contract %+v, code {%s %s}", i, got, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the contract, %d in code", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: contract %+v, code %+v", kind, i, g, m)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.bound):
				t.Errorf("%s %s: contract bound %v, code %v", kind, m.name, g.Bound, m.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.name)
			}
		}
	}
	check("end_to_end", contract.EndToEnd, endToEndMetrics, true)
	check("per_layer", contract.PerLayer, perLayerMetrics(), false)
}
