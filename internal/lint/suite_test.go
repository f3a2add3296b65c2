package lint_test

import (
	"testing"

	"prestigebft/internal/lint/linttest"
	"prestigebft/internal/lint/maporder"
	"prestigebft/internal/lint/msgswitch"
	"prestigebft/internal/lint/nogoroutine"
	"prestigebft/internal/lint/walltime"
)

// The fixture package path sits under internal/core so the
// deterministic-set analyzers (maporder, walltime, nogoroutine) fire with
// their default -pkgs configuration; msgswitch applies everywhere and
// ignores the path.
const fixturePath = "prestigebft/internal/core/lintfixture"

func TestMaporderFixture(t *testing.T) {
	linttest.Check(t, "testdata/maporder", fixturePath, maporder.Analyzer)
}

func TestWalltimeFixture(t *testing.T) {
	linttest.Check(t, "testdata/walltime", fixturePath, walltime.Analyzer)
}

func TestNogoroutineFixture(t *testing.T) {
	linttest.Check(t, "testdata/nogoroutine", fixturePath, nogoroutine.Analyzer)
}

func TestMsgswitchFixture(t *testing.T) {
	linttest.Check(t, "testdata/msgswitch", fixturePath, msgswitch.Analyzer)
}

// TestFixturesUnderFullSuite runs every fixture under all four analyzers at
// once — the way cmd/prestige-lint runs them — to prove no analyzer
// reports surprise findings on another's fixture.
func TestFixturesUnderFullSuite(t *testing.T) {
	all := []string{"maporder", "walltime", "nogoroutine", "msgswitch"}
	for _, dir := range all {
		t.Run(dir, func(t *testing.T) {
			linttest.Check(t, "testdata/"+dir, fixturePath,
				maporder.Analyzer, walltime.Analyzer, nogoroutine.Analyzer,
				msgswitch.Analyzer)
		})
	}
}
