package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the committed golden artifacts")

// The committed goldens pin the rendered experiment output at the Small
// profile's default seed. The serial-vs-concurrent determinism test proves
// fanning out doesn't change the numbers; these goldens additionally prove
// that *refactors* don't silently change them either — any diff in the
// reproduced tables/figures must show up as an explicit golden update in
// review, never as a silent drift.
//
// Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestGoldenArtifacts -update
func TestGoldenArtifacts(t *testing.T) {
	lab := NewLab(Small)
	for _, id := range []string{"table1", "fig3a"} {
		t.Run(id, func(t *testing.T) {
			got := runArtifact(t, lab, id)
			path := filepath.Join("testdata", id+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s drifted from committed golden %s\n--- got ---\n%s\n--- want ---\n%s",
					id, path, got, want)
			}
		})
	}
}
