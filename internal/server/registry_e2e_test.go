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
	"malevade/internal/defense"
	"malevade/internal/experiments"
)

// TestE2ERegistryMultiModel is the registry acceptance test: one daemon
// serves a bare detector and a defense-chain-hardened variant of it under
// two registry names. The same rows scored against both through the SDK,
// and one campaign submitted per model, must be bit-identical to the
// equivalent single-model daemons (one bare, one started with the same
// defense chain) — the registry, the model addressing and the named
// campaign targets must all be numerically invisible. A new version of the
// bare model is hot-promoted mid-campaign (same weights, fresh
// generation): every batch stays wholly one generation, and the results
// still match the promotion-free single-model daemon bit for bit. Finally
// the daemon restarts on the same registry directory and serves the
// previously live versions unchanged.
func TestE2ERegistryMultiModel(t *testing.T) {
	lab := experiments.NewLab(experiments.Small)
	target, err := lab.Target()
	if err != nil {
		t.Fatal(err)
	}
	mal, err := lab.TestMalware()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	targetPath := filepath.Join(dir, "target.gob")
	if err := target.Net.SaveFile(targetPath); err != nil {
		t.Fatal(err)
	}
	chain := defense.Chain{{Kind: defense.KindSqueeze, Bits: 3, Threshold: 0.2}}

	// Reference daemons: the equivalent single-model deployments.
	bareRef, err := New(Options{ModelPath: targetPath})
	if err != nil {
		t.Fatal(err)
	}
	defer bareRef.Close()
	bareTS := httptest.NewServer(bareRef)
	defer bareTS.Close()
	hardRef, err := New(Options{ModelPath: targetPath, Defenses: chain})
	if err != nil {
		t.Fatal(err)
	}
	defer hardRef.Close()
	hardTS := httptest.NewServer(hardRef)
	defer hardTS.Close()

	// The multi-detector daemon: both variants registered by name in one
	// registry-backed process.
	regDir := t.TempDir()
	multi, err := New(Options{ModelPath: targetPath, RegistryDir: regDir})
	if err != nil {
		t.Fatal(err)
	}
	multiTS := httptest.NewServer(multi)
	closed := false
	defer func() {
		if !closed {
			multiTS.Close()
			multi.Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	mc := client.New(multiTS.URL)
	if _, err := mc.RegisterModel(ctx, client.RegisterModelRequest{Name: "bare", Path: targetPath}); err != nil {
		t.Fatalf("register bare: %v", err)
	}
	if _, err := mc.RegisterModel(ctx, client.RegisterModelRequest{Name: "hard", Path: targetPath, Defenses: chain}); err != nil {
		t.Fatalf("register hard: %v", err)
	}

	// Score the same rows against both names and against the equivalent
	// single-model daemons: bit-identical verdicts.
	bc := client.New(bareTS.URL)
	hc := client.New(hardTS.URL)
	wantBare, _, err := bc.Score(ctx, mal.X)
	if err != nil {
		t.Fatal(err)
	}
	wantHard, _, err := hc.Score(ctx, mal.X)
	if err != nil {
		t.Fatal(err)
	}
	gotBare, _, err := mc.ScoreModel(ctx, "bare", mal.X)
	if err != nil {
		t.Fatal(err)
	}
	gotHard, _, err := mc.ScoreModel(ctx, "hard", mal.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantBare {
		if gotBare[i] != wantBare[i] {
			t.Fatalf("bare row %d: %+v via registry, %+v via single-model daemon", i, gotBare[i], wantBare[i])
		}
		if gotHard[i] != wantHard[i] {
			t.Fatalf("hard row %d: %+v via registry, %+v via single-model daemon", i, gotHard[i], wantHard[i])
		}
	}
	// The two variants must actually disagree somewhere, or the defended
	// comparison proves nothing.
	differ := false
	for i := range gotBare {
		if gotBare[i] != gotHard[i] {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("bare and defended variants agree on every row; defended comparison is vacuous")
	}

	// One campaign per model on the multi daemon vs the same campaign on
	// each single-model daemon. Crafting is pinned to the same saved file
	// everywhere; population comes from the shared profile; a batch size
	// that doesn't divide the population exercises the ragged final batch.
	specFor := func(name, targetModel string) campaign.Spec {
		return campaign.Spec{
			Name: name,
			Attack: attack.Config{
				Kind: attack.KindJSMA, Theta: 0.1, Gamma: 0.025,
			},
			CraftModelPath: targetPath,
			Profile:        "small",
			TargetModel:    targetModel,
			BatchSize:      7,
		}
	}
	runCampaign := func(c *client.Client, spec campaign.Spec, midway func()) campaign.Snapshot {
		t.Helper()
		snap, err := c.SubmitCampaign(ctx, spec)
		if err != nil {
			t.Fatalf("submit %s: %v", spec.Name, err)
		}
		if midway != nil {
			// Wait for real progress so the promotion lands mid-campaign,
			// then fire it while batches are still being judged.
			for {
				cur, err := c.CampaignSnapshot(ctx, snap.ID, 0)
				if err != nil {
					t.Fatal(err)
				}
				if cur.DoneSamples > 0 || cur.Status.Terminal() {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			midway()
		}
		final, err := c.WaitCampaign(ctx, snap.ID, client.WaitOptions{Interval: 10 * time.Millisecond})
		if err != nil {
			t.Fatalf("wait %s: %v", spec.Name, err)
		}
		if final.Status != campaign.StatusDone {
			t.Fatalf("campaign %s status %s (%s)", spec.Name, final.Status, final.Error)
		}
		return final
	}

	refBare := runCampaign(bc, specFor("ref-bare", ""), nil)
	refHard := runCampaign(hc, specFor("ref-hard", ""), nil)
	// Mid-campaign, register-and-promote a new version of "bare" with the
	// same weights: the generation advances live under the campaign, but
	// the numbers cannot move.
	gotBareCampaign := runCampaign(mc, specFor("multi-bare", "bare"), func() {
		if _, err := mc.RegisterModel(ctx, client.RegisterModelRequest{
			Name: "bare", Path: targetPath, Promote: true,
		}); err != nil {
			t.Fatalf("mid-campaign promote: %v", err)
		}
	})
	gotHardCampaign := runCampaign(mc, specFor("multi-hard", "hard"), nil)

	compare := func(label string, got, want campaign.Snapshot) {
		t.Helper()
		if got.TotalSamples != want.TotalSamples || len(got.Results) != len(want.Results) {
			t.Fatalf("%s: %d/%d results via registry, %d/%d via single-model daemon",
				label, len(got.Results), got.TotalSamples, len(want.Results), want.TotalSamples)
		}
		for i := range got.Results {
			g, w := got.Results[i], want.Results[i]
			if g.Index != w.Index || g.BaselineDetected != w.BaselineDetected ||
				g.Evaded != w.Evaded || g.CraftEvaded != w.CraftEvaded ||
				g.L2 != w.L2 || g.ModifiedFeatures != w.ModifiedFeatures {
				t.Fatalf("%s sample %d: %+v via registry, %+v via single-model daemon", label, i, g, w)
			}
		}
		if got.BaselineDetectionRate != want.BaselineDetectionRate || got.EvasionRate != want.EvasionRate {
			t.Fatalf("%s rates: %v/%v via registry, %v/%v via single-model daemon", label,
				got.BaselineDetectionRate, got.EvasionRate,
				want.BaselineDetectionRate, want.EvasionRate)
		}
	}
	compare("bare campaign", gotBareCampaign, refBare)
	compare("hard campaign", gotHardCampaign, refHard)

	// Zero mixed-generation batches: every batch's samples must share one
	// generation (batches are BatchSize windows of the population).
	batchGen := map[int]int64{}
	for _, r := range gotBareCampaign.Results {
		b := r.Index / 7
		if g, ok := batchGen[b]; ok && g != r.Generation {
			t.Fatalf("batch %d judged by generations %d and %d — mixed-generation batch", b, g, r.Generation)
		}
		batchGen[b] = r.Generation
	}
	if len(gotBareCampaign.Generations) > 1 {
		t.Logf("promotion landed mid-campaign: generations %v, batches %d, numbers unchanged",
			gotBareCampaign.Generations, gotBareCampaign.Batches)
	} else {
		t.Logf("campaign finished within one generation (%v) — promotion landed at a boundary", gotBareCampaign.Generations)
	}

	// Restart: close the daemon (the registry store survives on disk) and
	// reopen on the same directory. The previously live versions —
	// including the mid-campaign-promoted bare v2 and the defended wrap —
	// serve unchanged.
	bareInfo, err := mc.Model(ctx, "bare")
	if err != nil {
		t.Fatal(err)
	}
	if bareInfo.Live != 2 {
		t.Fatalf("bare live version %d after mid-campaign promote, want 2", bareInfo.Live)
	}
	multiTS.Close()
	multi.Close()
	closed = true

	multi2, err := New(Options{ModelPath: targetPath, RegistryDir: regDir})
	if err != nil {
		t.Fatalf("restart on the registry dir: %v", err)
	}
	defer multi2.Close()
	multiTS2 := httptest.NewServer(multi2)
	defer multiTS2.Close()
	mc2 := client.New(multiTS2.URL)

	models, err := mc2.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("restarted daemon lists %d models, want 2", len(models))
	}
	bareAfter, err := mc2.Model(ctx, "bare")
	if err != nil {
		t.Fatal(err)
	}
	if bareAfter.Live != bareInfo.Live || bareAfter.Generation != bareInfo.Generation {
		t.Fatalf("bare after restart: live v%d gen %d, want v%d gen %d",
			bareAfter.Live, bareAfter.Generation, bareInfo.Live, bareInfo.Generation)
	}
	gotBare2, _, err := mc2.ScoreModel(ctx, "bare", mal.X)
	if err != nil {
		t.Fatal(err)
	}
	gotHard2, _, err := mc2.ScoreModel(ctx, "hard", mal.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantBare {
		if gotBare2[i] != wantBare[i] {
			t.Fatalf("bare row %d after restart: %+v, want %+v", i, gotBare2[i], wantBare[i])
		}
		if gotHard2[i] != wantHard[i] {
			t.Fatalf("hard row %d after restart: %+v, want %+v", i, gotHard2[i], wantHard[i])
		}
	}
	t.Logf("registry served both variants bit-identically to single-model daemons, survived a restart (bare live v%d gen %d)",
		bareAfter.Live, bareAfter.Generation)
}
