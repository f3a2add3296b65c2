package fuzz

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"prestigebft/internal/scenario"
)

// streamDigest is the SHA-256 of the serialized timelines of samples 0–49
// at fuzz seeds 1 and 7, in that order. Any change to what
// `prestige-bench -fuzz N -fuzz-seed S` generates — the RNG draw order, the
// candidate enumeration, the cleanup phase, the oracles chosen — moves it.
// Such a change makes every committed seed and nightly log line replay a
// different timeline, so it must be deliberate: update the digest only
// together with a note that the fuzz stream changed.
const streamDigest = "bbad45baa4eefe87fa16b9d340545d141a5b40519d192a12f8bca61278af058d"

// TestFuzzStreamPinned: the sample stream is stable across commits, not
// only across two runs of one build (TestGeneratedScenariosValid).
func TestFuzzStreamPinned(t *testing.T) {
	h := sha256.New()
	for _, seed := range []int64{1, 7} {
		f := New(seed)
		for i := 0; i < 50; i++ {
			b, err := scenario.MarshalScenario(f.Scenario(i))
			if err != nil {
				t.Fatalf("seed %d sample %d: %v", seed, i, err)
			}
			h.Write(b)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != streamDigest {
		t.Fatalf("fuzz stream digest %s, pinned %s: the generator no longer replays the same timelines", got, streamDigest)
	}
}
