package nn

import (
	"bytes"
	"path/filepath"
	"testing"

	"malevade/internal/rng"
	"malevade/internal/tensor"
)

// randomSpecNet builds a random architecture from a seeded generator:
// random depth, widths, activation, and optional dropout — the property
// test's universe of serializable networks.
func randomSpecNet(t *testing.T, r *rng.RNG) *Network {
	t.Helper()
	activations := []string{"relu", "sigmoid", "tanh"}
	depth := 2 + int(r.Uint64()%3) // 2..4 dense layers
	dims := make([]int, depth+1)
	for i := range dims {
		dims[i] = 1 + int(r.Uint64()%9)
	}
	cfg := MLPConfig{
		Dims:       dims,
		Activation: activations[r.Uint64()%3],
		Seed:       r.Uint64(),
	}
	if r.Uint64()%2 == 0 {
		cfg.DropoutRate = 0.3
	}
	net, err := NewMLP(cfg)
	if err != nil {
		t.Fatalf("build %v: %v", dims, err)
	}
	return net
}

// TestSaveLoadRoundTripBitIdentical: for random specs, a saved-then-loaded
// network produces bit-identical logits to the original on random inputs.
func TestSaveLoadRoundTripBitIdentical(t *testing.T) {
	r := rng.New(20260728)
	for trial := 0; trial < 25; trial++ {
		net := randomSpecNet(t, r)

		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatalf("trial %d: save: %v", trial, err)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: load: %v", trial, err)
		}
		if loaded.InDim() != net.InDim() || loaded.OutDim() != net.OutDim() {
			t.Fatalf("trial %d: shape %d→%d, want %d→%d",
				trial, loaded.InDim(), loaded.OutDim(), net.InDim(), net.OutDim())
		}

		x := tensor.New(3, net.InDim())
		for i := range x.Data {
			x.Data[i] = r.Float64()*2 - 1
		}
		want := net.Logits(x)
		got := loaded.Logits(x)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("trial %d: logits diverge at %d: %v vs %v",
					trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	r := rng.New(7)
	net := randomSpecNet(t, r)
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := net.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, net.InDim())
	for i := range x.Data {
		x.Data[i] = r.Float64()
	}
	want, got := net.Logits(x), loaded.Logits(x)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("logits diverge at %d", i)
		}
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Fatal("LoadFile on missing path succeeded")
	}
}

// TestLoadTruncatedPayloadErrors: every strict prefix of a valid payload
// must fail with an error — never panic, never decode to a partial network.
func TestLoadTruncatedPayloadErrors(t *testing.T) {
	net := randomSpecNet(t, rng.New(99))
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	// Check a spread of prefixes including the boundary cases.
	for _, n := range []int{0, 1, 2, 3, 5, 10, len(payload) / 4, len(payload) / 2, len(payload) - 2, len(payload) - 1} {
		if n < 0 || n >= len(payload) {
			continue
		}
		if _, err := Load(bytes.NewReader(payload[:n])); err == nil {
			t.Errorf("truncated payload of %d/%d bytes loaded successfully", n, len(payload))
		}
	}
}

// TestLoadCorruptedPayloadNeverPanics: flip bytes all over a valid payload;
// Load must return a valid network or an error, never panic.
func TestLoadCorruptedPayloadNeverPanics(t *testing.T) {
	net := randomSpecNet(t, rng.New(41))
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	r := rng.New(17)
	for trial := 0; trial < 300; trial++ {
		corrupted := make([]byte, len(payload))
		copy(corrupted, payload)
		// 1..3 random byte flips.
		for k := 0; k <= int(r.Uint64()%3); k++ {
			pos := int(r.Uint64() % uint64(len(corrupted)))
			corrupted[pos] ^= byte(1 + r.Uint64()%255)
		}
		loaded, err := Load(bytes.NewReader(corrupted))
		if err != nil {
			continue
		}
		// A lucky flip may still decode; the result must then be a
		// structurally valid network that can score.
		if loaded.InDim() <= 0 || loaded.OutDim() <= 0 {
			t.Fatalf("trial %d: corrupted payload decoded to invalid shape %d→%d",
				trial, loaded.InDim(), loaded.OutDim())
		}
		x := tensor.New(1, loaded.InDim())
		_ = loaded.Logits(x)
	}
}

// TestLoadRejectsWrongFormat: a Spec with a foreign format tag must be
// refused so future format revisions fail loudly.
func TestLoadRejectsWrongFormat(t *testing.T) {
	net := randomSpecNet(t, rng.New(5))
	s := net.Spec()
	s.Format = "malevade-nn-v999"
	if _, err := FromSpec(s); err == nil {
		t.Fatal("FromSpec accepted unknown format tag")
	}
}

// TestFromSpecValidatesShapes: hand-corrupted specs (inconsistent weight
// blocks, bad dims, unknown layer types) must error, not panic or build.
func TestFromSpecValidatesShapes(t *testing.T) {
	base := func() *Spec {
		net := randomSpecNet(t, rng.New(23))
		return net.Spec()
	}
	mutations := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"short weight block", func(s *Spec) {
			for i := range s.Layers {
				if s.Layers[i].Type == "dense" {
					s.Layers[i].W = s.Layers[i].W[:len(s.Layers[i].W)-1]
					return
				}
			}
		}},
		{"short bias", func(s *Spec) {
			for i := range s.Layers {
				if s.Layers[i].Type == "dense" {
					s.Layers[i].B = s.Layers[i].B[:len(s.Layers[i].B)-1]
					return
				}
			}
		}},
		{"zero out dim", func(s *Spec) {
			for i := range s.Layers {
				if s.Layers[i].Type == "dense" {
					s.Layers[i].Out = 0
					return
				}
			}
		}},
		{"negative in dim", func(s *Spec) {
			for i := range s.Layers {
				if s.Layers[i].Type == "dense" {
					s.Layers[i].In = -4
					return
				}
			}
		}},
		{"unknown layer type", func(s *Spec) {
			s.Layers[0].Type = "quantum"
		}},
		{"no layers", func(s *Spec) {
			s.Layers = nil
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			s := base()
			m.mutate(s)
			if _, err := FromSpec(s); err == nil {
				t.Fatalf("FromSpec accepted spec with %s", m.name)
			}
		})
	}
}

// TestLoadedNetworkTrainsLikeOriginal: a loaded network starts without
// parameter-gradient buffers, keeps them unallocated through inference and
// input gradients, and allocates them on its first training pass, after
// which it trains to bit-identical weights with the network it was saved
// from.
func TestLoadedNetworkTrainsLikeOriginal(t *testing.T) {
	r := rng.New(41)
	net, err := NewMLP(MLPConfig{Dims: []int{6, 9, 5, 2}, Activation: "tanh", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(16, 6)
	for i := range x.Data {
		x.Data[i] = r.Float64()
	}
	labels := make([]int, x.Rows)
	for i := range labels {
		labels[i] = i % 2
	}
	loaded.Logits(x)
	loaded.ClassGradient(x, 0, 1)
	for _, p := range loaded.Params() {
		if p.Grad != nil {
			t.Fatalf("loaded %s has a gradient buffer before training", p.Name)
		}
	}
	cfg := TrainConfig{Epochs: 2, BatchSize: 4, Seed: 43}
	for _, n := range []*Network{net, loaded} {
		if err := Train(n, x, OneHot(labels, 2), cfg); err != nil {
			t.Fatal(err)
		}
	}
	want, got := net.Params(), loaded.Params()
	for i := range want {
		for k, v := range want[i].Value.Data {
			if got[i].Value.Data[k] != v {
				t.Fatalf("param %d (%s) element %d: loaded trained to %v, original %v",
					i, want[i].Name, k, got[i].Value.Data[k], v)
			}
		}
	}
}

// BenchmarkLoad times decoding and building the 491-512-256-2 target from
// its saved form, the per-job model load of a campaign.
func BenchmarkLoad(b *testing.B) {
	net, err := NewMLP(MLPConfig{Dims: []int{491, 512, 256, 2}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
