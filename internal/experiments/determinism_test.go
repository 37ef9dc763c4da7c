package experiments

import (
	"bytes"
	"runtime"
	"testing"
)

// The concurrent engine must not change a single byte of any artifact: each
// scored row depends only on its own input row, sweep points land in
// index-addressed slots, and every attack is deterministic per strength.
// These goldens compare the Serial reference path against the concurrent
// path under an inflated GOMAXPROCS, byte for byte.

func runArtifact(t *testing.T, l *Lab, id string) []byte {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(l, &buf); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.Bytes()
}

func TestArtifactsDeterministicSerialVsConcurrent(t *testing.T) {
	serialLab := NewLab(Small)
	serialLab.Serial = true
	concLab := NewLab(Small)
	defer concLab.Close()

	// Force real fan-out even on a single-core machine: sweep workers,
	// scorer workers and the pooled inference path all key off GOMAXPROCS.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	// table1 is the issue's golden (corpus generation only); fig3a covers
	// the full concurrent surface: parallel sweeps crafting on one shared
	// model and engine-backed evasion scoring.
	for _, id := range []string{"table1", "fig3a"} {
		runtime.GOMAXPROCS(1)
		serial := runArtifact(t, serialLab, id)

		runtime.GOMAXPROCS(4)
		concurrent := runArtifact(t, concLab, id)

		if !bytes.Equal(serial, concurrent) {
			t.Fatalf("%s: concurrent artifact differs from serial golden\n--- serial ---\n%s\n--- concurrent ---\n%s",
				id, serial, concurrent)
		}
	}
}
