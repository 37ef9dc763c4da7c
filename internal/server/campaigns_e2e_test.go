package server

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"malevade/internal/attack"
	"malevade/internal/campaign"
	"malevade/internal/client"
	"malevade/internal/detector"
	"malevade/internal/experiments"
)

// TestE2ECampaignMatchesLab is the campaign acceptance test: a campaign
// submitted over HTTP — crafting on the Lab's substitute, populated from
// the Lab's profile, judged against the Lab's target through the remote
// /v1/label oracle — must reproduce the in-process experiments Lab's
// evasion and transfer numbers bit-for-bit at the default seed. The
// campaign layer, the wire, and the batch split must all be numerically
// invisible.
func TestE2ECampaignMatchesLab(t *testing.T) {
	// In-process reference: the grey-box pipeline at the paper's
	// operating point θ=0.1, γ=0.025 on the Small profile.
	lab := experiments.NewLab(experiments.Small)
	target, err := lab.Target()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := lab.Substitute()
	if err != nil {
		t.Fatal(err)
	}
	mal, err := lab.TestMalware()
	if err != nil {
		t.Fatal(err)
	}
	ref := (&attack.JSMA{Model: sub.Net, Theta: 0.1, Gamma: 0.025}).Run(mal.X)
	refAdv := attack.AdvMatrix(ref)
	refBaseline := detector.DetectionRate(target, mal.X)
	refAttacked := detector.DetectionRate(target, refAdv)
	refBaseLabels := target.Predict(mal.X)
	refAdvLabels := target.Predict(refAdv)

	// Deployment: the Lab's target behind a real HTTP daemon, the Lab's
	// substitute saved where the daemon can load it as the crafting model.
	dir := t.TempDir()
	targetPath := filepath.Join(dir, "target.gob")
	if err := target.Net.SaveFile(targetPath); err != nil {
		t.Fatal(err)
	}
	subPath := filepath.Join(dir, "substitute.gob")
	if err := sub.Net.SaveFile(subPath); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{ModelPath: targetPath})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// The campaign travels the full wire path twice over: the spec is
	// submitted over HTTP, and TargetURL routes every evasion verdict
	// through the remote /v1/label oracle rather than the in-process
	// model. A batch size that doesn't divide the population exercises
	// the ragged final batch.
	spec := campaign.Spec{
		Name: "e2e-greybox",
		Attack: attack.Config{
			Kind: attack.KindJSMA, Theta: 0.1, Gamma: 0.025,
		},
		CraftModelPath: subPath,
		Profile:        "small",
		TargetURL:      ts.URL,
		BatchSize:      17,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	c := client.New(ts.URL)
	snap, err := c.SubmitCampaign(ctx, spec)
	if err != nil {
		t.Fatalf("submit over HTTP: %v", err)
	}
	final, err := c.WaitCampaign(ctx, snap.ID, client.WaitOptions{Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("campaign %s never finished: %v", snap.ID, err)
	}
	if final.Status != campaign.StatusDone {
		t.Fatalf("campaign status %s (%s), want done", final.Status, final.Error)
	}

	// The population must be the Lab's, sample for sample.
	n := mal.X.Rows
	if final.TotalSamples != n || final.DoneSamples != n || len(final.Results) != n {
		t.Fatalf("campaign judged %d/%d samples with %d results, Lab attacked %d",
			final.DoneSamples, final.TotalSamples, len(final.Results), n)
	}

	// Bit-for-bit per-sample agreement with the in-process pipeline:
	// identical baseline verdicts, identical evasion verdicts, identical
	// perturbation geometry.
	evaded, detected := 0, 0
	for i, r := range final.Results {
		if want := refBaseLabels[i] == 1; r.BaselineDetected != want {
			t.Fatalf("sample %d: baseline detected %v over the wire, %v in-process", i, r.BaselineDetected, want)
		}
		if want := refAdvLabels[i] == 0; r.Evaded != want {
			t.Fatalf("sample %d: evaded %v over the wire, %v in-process", i, r.Evaded, want)
		}
		if r.CraftEvaded != ref[i].Evaded {
			t.Fatalf("sample %d: craft evasion %v over the wire, %v in-process", i, r.CraftEvaded, ref[i].Evaded)
		}
		if r.L2 != ref[i].L2 {
			t.Fatalf("sample %d: L2 %v over the wire, %v in-process", i, r.L2, ref[i].L2)
		}
		if r.ModifiedFeatures != len(ref[i].ModifiedFeatures) {
			t.Fatalf("sample %d: %d modified features over the wire, %d in-process",
				i, r.ModifiedFeatures, len(ref[i].ModifiedFeatures))
		}
		if r.Evaded {
			evaded++
		}
		if r.BaselineDetected {
			detected++
		}
	}

	// Rate-level bit-for-bit equality, expressed as the Lab computes them:
	// detection = detected/n, so the campaign's complement counts must
	// reproduce DetectionRate exactly.
	if got, want := final.BaselineDetectionRate, refBaseline; got != want {
		t.Errorf("baseline detection rate %v over the wire, %v in-process", got, want)
	}
	if got, want := float64(n-evaded)/float64(n), refAttacked; got != want {
		t.Errorf("detection-under-attack %v over the wire, %v in-process", got, want)
	}
	transfer := 1 - refAttacked
	t.Logf("campaign over HTTP reproduced Lab grey-box numbers bit-for-bit: baseline %.4f, transfer %.4f (%d samples, %d batches, generations %v)",
		refBaseline, transfer, n, final.Batches, final.Generations)

	// The whole campaign ran against one model generation (no reloads).
	if len(final.Generations) != 1 {
		t.Errorf("generations %v, want exactly one without reloads", final.Generations)
	}
}
