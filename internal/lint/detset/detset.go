// Package detset names the package sets the determinism analyzers police.
// It is the single source of truth for which parts of the tree promise
// byte-identical deterministic replay (DESIGN.md §11).
package detset

import "strings"

// Deterministic lists the packages whose observable behaviour must be a pure
// function of their inputs and seeds: the serial protocol state machines, the
// discrete-event simulator, and every layer of the reproducible benchmark
// stack. maporder and walltime apply here. A prefix covers the package and
// all of its subpackages (so "baseline" covers hotstuff and sbft).
const Deterministic = "prestigebft/internal/core," +
	"prestigebft/internal/sim," +
	"prestigebft/internal/consensus," +
	"prestigebft/internal/quorum," +
	"prestigebft/internal/reputation," +
	"prestigebft/internal/ledger," +
	"prestigebft/internal/harness," +
	"prestigebft/internal/scenario," +
	"prestigebft/internal/experiments," +
	"prestigebft/internal/baseline"

// Serial lists the packages that form the single-threaded consensus core:
// code that runs strictly under the scheduler's one event at a time and must
// never introduce its own concurrency. nogoroutine applies here. The harness,
// scenario and experiments layers are deliberately absent — their worker pools are the
// sanctioned concurrency boundary — as is the transport, which owns the real
// network goroutines.
const Serial = "prestigebft/internal/core," +
	"prestigebft/internal/sim," +
	"prestigebft/internal/consensus," +
	"prestigebft/internal/quorum," +
	"prestigebft/internal/reputation," +
	"prestigebft/internal/ledger," +
	"prestigebft/internal/baseline"

// Match reports whether pkgPath falls under any comma-separated prefix in
// set: an exact match or a subpackage of it.
func Match(set, pkgPath string) bool {
	for _, p := range strings.Split(set, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}
