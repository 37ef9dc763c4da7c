package attack

import (
	"fmt"
	"math"

	"malevade/internal/nn"
)

// Attack kinds accepted by Config.Kind, in the order reports list them.
const (
	// KindJSMA is the paper's saliency-map attack (θ per step, γ·M budget).
	KindJSMA = "jsma"
	// KindPGD is the add-only projected-gradient-descent comparison attack.
	KindPGD = "pgd"
	// KindFGSM is the one-shot add-only fast-gradient-sign attack.
	KindFGSM = "fgsm"
	// KindRandom is the Figure 3 random-addition control.
	KindRandom = "random"
)

// Kinds lists the attack kinds Config accepts, in report order.
func Kinds() []string { return []string{KindJSMA, KindPGD, KindFGSM, KindRandom} }

// Config is a declarative attack description: the serializable form the
// campaign API, the CLI and the drivers share. Build instantiates it against
// a crafting model. Fields irrelevant to a kind are ignored (PGD reads
// Epsilon/Alpha/Steps; the θ/γ family reads Theta/Gamma; only KindRandom
// reads Seed).
type Config struct {
	// Kind selects the attack: jsma|pgd|fgsm|random.
	Kind string `json:"kind"`
	// Theta is the per-step perturbation magnitude (jsma, fgsm, random).
	Theta float64 `json:"theta,omitempty"`
	// Gamma bounds the perturbed-feature fraction at γ·M (jsma, random).
	Gamma float64 `json:"gamma,omitempty"`
	// Epsilon is PGD's L∞ radius.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Alpha is PGD's step size (default Epsilon/4).
	Alpha float64 `json:"alpha,omitempty"`
	// Steps is PGD's iteration count (default 10).
	Steps int `json:"steps,omitempty"`
	// Seed drives KindRandom's feature selection.
	Seed uint64 `json:"seed,omitempty"`
}

// Validate checks the config without a model: the kind must be known and
// every numeric field finite and non-negative. Build repeats this check, but
// API front-ends call Validate first so a bad spec is rejected at submit
// time rather than inside an asynchronous job.
func (c Config) Validate() error {
	switch c.Kind {
	case KindJSMA, KindPGD, KindFGSM, KindRandom:
	default:
		return fmt.Errorf("attack: unknown kind %q (jsma|pgd|fgsm|random)", c.Kind)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"theta", c.Theta}, {"gamma", c.Gamma},
		{"epsilon", c.Epsilon}, {"alpha", c.Alpha},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("attack: %s must be finite and non-negative, got %v", f.name, f.v)
		}
	}
	if c.Steps < 0 {
		return fmt.Errorf("attack: steps must be non-negative, got %d", c.Steps)
	}
	return nil
}

// Build instantiates the configured attack against a crafting model. The
// optional scorer judges the final verdicts through a shared engine (see
// BatchScorer); nil keeps them on the model's own inference path.
func (c Config) Build(model *nn.Network, sc BatchScorer) (Attack, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("attack: Build requires a crafting model")
	}
	switch c.Kind {
	case KindJSMA:
		return &JSMA{Model: model, Theta: c.Theta, Gamma: c.Gamma, Scorer: sc}, nil
	case KindPGD:
		return &PGD{Model: model, Epsilon: c.Epsilon, Alpha: c.Alpha, Steps: c.Steps, Scorer: sc}, nil
	case KindFGSM:
		return &FGSM{Model: model, Theta: c.Theta, Scorer: sc}, nil
	case KindRandom:
		return &RandomAdd{Model: model, Theta: c.Theta, Gamma: c.Gamma, Seed: c.Seed, Scorer: sc}, nil
	}
	panic("unreachable: Validate accepted unknown kind")
}

// BatchInvariant reports whether the attack's per-sample outcome is
// independent of how a population is split into batches. Gradient-guided
// attacks perturb each row from its own gradient, so any batching produces
// identical adversarial rows; KindRandom draws features from one sequential
// stream, so splitting changes the draws. The campaign engine uses this to
// re-seed random attacks per batch (deterministically, but batch-layout
// dependent) and to document which campaign results are bit-for-bit
// reproducible against whole-population runs.
func (c Config) BatchInvariant() bool { return c.Kind != KindRandom }

// String renders the config the way the instantiated attack's Name would.
func (c Config) String() string {
	switch c.Kind {
	case KindPGD:
		return fmt.Sprintf("pgd(eps=%.4g,steps=%d)", c.Epsilon, c.Steps)
	case KindFGSM:
		return fmt.Sprintf("fgsm(theta=%.4g)", c.Theta)
	case KindRandom:
		return fmt.Sprintf("random-add(theta=%.4g,gamma=%.4g)", c.Theta, c.Gamma)
	default:
		return fmt.Sprintf("jsma(theta=%.4g,gamma=%.4g)", c.Theta, c.Gamma)
	}
}
