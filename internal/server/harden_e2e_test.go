package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"malevade/internal/client"
	"malevade/internal/dataset"
	"malevade/internal/defense"
	"malevade/internal/experiments"
	"malevade/internal/harden"
	"malevade/internal/tensor"
)

// hardenLabTarget trains the Small-profile lab target and saves it where a
// daemon can register it.
func hardenLabTarget(t *testing.T) (string, *experiments.Lab, *dataset.Dataset) {
	t.Helper()
	lab := experiments.NewLab(experiments.Small)
	target, err := lab.Target()
	if err != nil {
		t.Fatal(err)
	}
	mal, err := lab.TestMalware()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "target.gob")
	if err := target.Net.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path, lab, mal
}

// hardenDaemon starts a registry daemon with the target registered as
// "prod" (first version is always promoted live).
func hardenDaemon(t *testing.T, ctx context.Context, targetPath, regDir string, opts harden.Options) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	s, err := New(Options{ModelPath: targetPath, RegistryDir: regDir, Harden: opts})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	c := client.New(ts.URL)
	if _, err := c.RegisterModel(ctx, client.RegisterModelRequest{Name: "prod", Path: targetPath}); err != nil {
		ts.Close()
		s.Close()
		t.Fatalf("register prod: %v", err)
	}
	return s, ts, c
}

// TestE2EHardenMatchesManual is the golden-loop acceptance test: a 2-round
// controller run must be bit-identical — per-round evasion rates, harvested
// rows, dedup counts, promoted versions, and the final model's verdicts —
// to the same loop hand-glued from the public pieces the controller is
// built from: an SDK campaign with KeepRows, HarvestEvasions,
// BuildAdvTrainingSet, AdversarialTraining under RoundTrainConfig, and a
// register-and-promote. The controller adds orchestration and durability;
// it must add no numbers of its own.
func TestE2EHardenMatchesManual(t *testing.T) {
	targetPath, _, mal := hardenLabTarget(t)
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Second)
	defer cancel()

	// One retraining epoch per round: enough to measurably harden, weak
	// enough that round 1 does not collapse evasion to zero outright
	// (profile-strength retraining ends the loop early with no_evasions,
	// leaving nothing for round 2 to chain from).
	hsp := harden.Spec{
		Model:  "prod",
		Attack: attackJSMASmall(),
		Rounds: 2,
		Epochs: 1,
		Seed:   43,
	}
	p, err := experiments.ProfileByName(hsp.Profile)
	if err != nil {
		t.Fatal(err)
	}

	// Daemon A: the controller runs the loop.
	sA, tsA, cA := hardenDaemon(t, ctx, targetPath, t.TempDir(), harden.Options{})
	defer func() { tsA.Close(); sA.Close() }()
	snap, err := cA.SubmitHarden(ctx, hsp)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := cA.WaitHarden(ctx, snap.ID, client.HardenWaitOptions{Interval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Status != harden.StatusDone || ctrl.StopReason != harden.StopRoundBudget {
		t.Fatalf("controller job: status %s stop %q (%s), want done/round_budget", ctrl.Status, ctrl.StopReason, ctrl.Error)
	}
	if len(ctrl.Rounds) != 2 || ctrl.Campaigns != 3 {
		t.Fatalf("controller ran %d rounds over %d campaigns, want 2/3", len(ctrl.Rounds), ctrl.Campaigns)
	}
	for i, r := range ctrl.Rounds {
		if r.ReattackID == "" {
			t.Fatalf("round %d has no re-attack measurement: %+v", i+1, r)
		}
	}
	// The acceptance headline: hardening reduced the evasion rate.
	if ctrl.Rounds[1].EvasionAfter >= ctrl.Rounds[0].EvasionBefore {
		t.Fatalf("evasion rate did not drop: %.4f → %.4f",
			ctrl.Rounds[0].EvasionBefore, ctrl.Rounds[1].EvasionAfter)
	}

	// Daemon B: the same loop, hand-glued over the SDK. The crafting model
	// is the registered target file itself — the same weights the
	// controller snapshotted from the live version at job start.
	dirB := t.TempDir()
	sB, tsB, cB := hardenDaemon(t, ctx, targetPath, t.TempDir(), harden.Options{})
	defer func() { tsB.Close(); sB.Close() }()
	corpus, err := dataset.Generate(dataset.TableIConfig(p.Seed).Scaled(p.ScaleDivisor))
	if err != nil {
		t.Fatal(err)
	}
	base := corpus.Train

	runManualCampaign := func(round int) float64 {
		t.Helper()
		cs := hsp.CampaignSpec(targetPath)
		cs.Name = fmt.Sprintf("manual round %d", round)
		sub, err := cB.SubmitCampaign(ctx, cs)
		if err != nil {
			t.Fatal(err)
		}
		camp, err := cB.WaitCampaign(ctx, sub.ID, client.WaitOptions{Interval: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if camp.Status.Terminal() && camp.Error != "" {
			t.Fatalf("manual campaign %d: %s", round, camp.Error)
		}
		if round <= len(ctrl.Rounds) {
			want := ctrl.Rounds[round-1]
			if camp.EvasionRate != want.EvasionBefore {
				t.Fatalf("round %d: manual evasion rate %v, controller %v", round, camp.EvasionRate, want.EvasionBefore)
			}
			if camp.BaselineDetectionRate != want.BaselineDetection {
				t.Fatalf("round %d: manual baseline %v, controller %v", round, camp.BaselineDetectionRate, want.BaselineDetection)
			}
			adv := harden.HarvestEvasions(camp)
			if adv == nil || adv.Rows != want.RowsHarvested {
				t.Fatalf("round %d: manual harvested %+v rows, controller %d", round, adv, want.RowsHarvested)
			}
			sets, err := defense.BuildAdvTrainingSet(base, adv)
			if err != nil {
				t.Fatal(err)
			}
			if sets.Duplicates != want.Duplicates {
				t.Fatalf("round %d: manual dedup dropped %d rows, controller %d", round, sets.Duplicates, want.Duplicates)
			}
			cfg := harden.RoundTrainConfig(hsp, p, round)
			if cfg.Seed != want.TrainSeed {
				t.Fatalf("round %d: manual train seed %d, controller %d", round, cfg.Seed, want.TrainSeed)
			}
			hardened, err := defense.AdversarialTraining(sets, cfg)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dirB, fmt.Sprintf("round%d.gob", round))
			if err := hardened.Net.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			info, err := cB.RegisterModel(ctx, client.RegisterModelRequest{Name: "prod", Path: path, Promote: true})
			if err != nil {
				t.Fatal(err)
			}
			if info.Live != ctrl.Versions[round-1] {
				t.Fatalf("round %d: manual promoted v%d, controller v%d", round, info.Live, ctrl.Versions[round-1])
			}
		}
		return camp.EvasionRate
	}

	var rates []float64
	for round := 1; round <= 3; round++ {
		rates = append(rates, runManualCampaign(round))
	}
	// The re-attack chain: campaign r+1's rate is round r's EvasionAfter.
	if ctrl.Rounds[0].EvasionAfter != rates[1] || ctrl.Rounds[1].EvasionAfter != rates[2] {
		t.Fatalf("re-attack chain mismatch: controller afters %v/%v, manual campaigns %v",
			ctrl.Rounds[0].EvasionAfter, ctrl.Rounds[1].EvasionAfter, rates[1:])
	}
	if ctrl.EvasionRate != rates[2] {
		t.Fatalf("controller final rate %v, manual final campaign %v", ctrl.EvasionRate, rates[2])
	}

	// Weight-level identity, observed at the wire: the same probe scored
	// through both daemons' live "prod" must produce bit-identical
	// verdicts, and both registries must sit at the same live version.
	infoA, err := cA.Model(ctx, "prod")
	if err != nil {
		t.Fatal(err)
	}
	infoB, err := cB.Model(ctx, "prod")
	if err != nil {
		t.Fatal(err)
	}
	if infoA.Live != infoB.Live || infoA.Live != ctrl.Versions[len(ctrl.Versions)-1] {
		t.Fatalf("live versions diverge: controller daemon v%d, manual daemon v%d, controller promoted %v",
			infoA.Live, infoB.Live, ctrl.Versions)
	}
	gotA, _, err := cA.ScoreModel(ctx, "prod", mal.X)
	if err != nil {
		t.Fatal(err)
	}
	gotB, _, err := cB.ScoreModel(ctx, "prod", mal.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotA {
		if gotA[i] != gotB[i] {
			t.Fatalf("probe row %d: controller-hardened %+v, manually-hardened %+v — weights diverged", i, gotA[i], gotB[i])
		}
	}
	t.Logf("controller matched the hand-glued loop bit-for-bit: evasion %.4f → %.4f → %.4f, versions %v",
		rates[0], rates[1], rates[2], ctrl.Versions)
}

// TestHardenPromoteHammer floods a registry model with concurrent scoring
// and generation-pinned label traffic while a hardening job churns
// promotions underneath it: zero dropped requests, per-response generations
// that never run backwards within a client, and the promotion churn
// actually witnessed by the traffic.
func TestHardenPromoteHammer(t *testing.T) {
	targetPath, _, mal := hardenLabTarget(t)
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Second)
	defer cancel()
	s, ts, c := hardenDaemon(t, ctx, targetPath, t.TempDir(), harden.Options{})
	defer func() { ts.Close(); s.Close() }()

	probe := tensor.New(48, mal.X.Cols)
	for i := 0; i < probe.Rows; i++ {
		copy(probe.Row(i), mal.X.Row(i%mal.X.Rows))
	}
	gens := make(map[int64]bool)
	var gensMu sync.Mutex
	seed, err := c.Model(ctx, "prod")
	if err != nil {
		t.Fatal(err)
	}
	gens[seed.Generation] = true

	snap, err := c.SubmitHarden(ctx, harden.Spec{
		Model:  "prod",
		Attack: attackJSMASmall(),
		Rounds: 2,
		Epochs: 1,
		Seed:   43,
	})
	if err != nil {
		t.Fatal(err)
	}

	const hammers = 4
	stop := make(chan struct{})
	errs := make(chan error, hammers)
	var wg sync.WaitGroup
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// A small MaxBatch forces multi-chunk batches, so the pinned
			// label path would surface any response that mixed
			// generations mid-batch.
			hc := client.New(ts.URL)
			hc.MaxBatch = 16
			var lastGen int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := hc.ScoreModel(ctx, "prod", probe); err != nil {
					errs <- fmt.Errorf("hammer %d: score dropped: %w", g, err)
					return
				}
				_, gen, err := hc.LabelVersionModel(ctx, "prod", probe)
				if err != nil {
					errs <- fmt.Errorf("hammer %d: pinned labels dropped: %w", g, err)
					return
				}
				if gen < lastGen {
					errs <- fmt.Errorf("hammer %d: generation ran backwards %d → %d", g, lastGen, gen)
					return
				}
				lastGen = gen
				gensMu.Lock()
				gens[gen] = true
				gensMu.Unlock()
			}
		}(g)
	}

	final, err := c.WaitHarden(ctx, snap.ID, client.HardenWaitOptions{Interval: 20 * time.Millisecond})
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != harden.StatusDone || len(final.Rounds) != 2 {
		t.Fatalf("hardening under load: status %s (%s), %d rounds", final.Status, final.Error, len(final.Rounds))
	}

	// One post-run probe pins the final generation into the witness set;
	// with the pre-run seed generation that guarantees the churn is
	// visible in what the traffic observed.
	_, finalGen, err := c.LabelVersionModel(ctx, "prod", probe)
	if err != nil {
		t.Fatal(err)
	}
	gens[finalGen] = true
	if len(gens) < 2 {
		t.Fatalf("traffic observed generations %v: promotions were not visible", gens)
	}
	info, err := c.Model(ctx, "prod")
	if err != nil {
		t.Fatal(err)
	}
	if info.Live != 3 {
		t.Errorf("live version %d after 2 rounds, want 3", info.Live)
	}
	t.Logf("hammer survived %d generations with zero drops (final live v%d)", len(gens), info.Live)
}

// TestHardenRestartMidJob is the durability acceptance test: kill the
// daemon after the job's first recorded round, restart on the same registry
// directory, and the job must resume from its recorded round — not from
// scratch — and run to completion with the full round ledger.
func TestHardenRestartMidJob(t *testing.T) {
	targetPath, _, _ := hardenLabTarget(t)
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Second)
	defer cancel()
	regDir := t.TempDir()

	sA, tsA, cA := hardenDaemon(t, ctx, targetPath, regDir, harden.Options{})
	snap, err := cA.SubmitHarden(ctx, harden.Spec{
		Model:  "prod",
		Attack: attackJSMASmall(),
		Rounds: 3,
		Epochs: 1,
		Seed:   43,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for round 1 to be durably recorded, then kill the daemon
	// mid-job.
	deadline := time.Now().Add(300 * time.Second)
	for {
		cur, err := cA.HardenSnapshot(ctx, snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Status.Terminal() {
			t.Fatalf("job finished before the restart could land: %+v", cur)
		}
		if len(cur.Rounds) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first round never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	tsA.Close()
	sA.Close()

	// Restart on the same registry dir: the daemon reloads the registry
	// (with round 1's promoted version live) and resumes the job.
	sB, err := New(Options{ModelPath: targetPath, RegistryDir: regDir})
	if err != nil {
		t.Fatalf("restart on registry dir: %v", err)
	}
	tsB := httptest.NewServer(sB)
	defer func() { tsB.Close(); sB.Close() }()
	cB := client.New(tsB.URL)

	final, err := cB.WaitHarden(ctx, snap.ID, client.HardenWaitOptions{Interval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != harden.StatusDone || final.StopReason != harden.StopRoundBudget {
		t.Fatalf("resumed job: status %s stop %q (%s), want done/round_budget", final.Status, final.StopReason, final.Error)
	}
	if !final.Resumed {
		t.Error("resumed job does not report resumed=true")
	}
	if len(final.Rounds) != 3 {
		t.Fatalf("resumed job recorded %d rounds, want 3", len(final.Rounds))
	}
	for i, r := range final.Rounds {
		if r.Round != i+1 || r.Version != i+2 {
			t.Errorf("round %d ledger: %+v, want round %d promoting v%d", i+1, r, i+1, i+2)
		}
	}
	info, err := cB.Model(ctx, "prod")
	if err != nil {
		t.Fatal(err)
	}
	if info.Live != 4 {
		t.Errorf("live version %d after 3 resumed rounds, want 4", info.Live)
	}
	t.Logf("job %s survived the restart: resumed at round 2, finished %d rounds, live v%d",
		snap.ID, len(final.Rounds), info.Live)
}
