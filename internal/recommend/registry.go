package recommend

import (
	"fmt"
	"strconv"

	"forecache/internal/trace"
)

// This file is the recommender registry: the single place that knows how
// each recommendation model is constructed, whether it trains on study
// traces or learns online, and which column of the default per-phase
// allocation table (§5.4.3, extended with the hotspot column) it claims.
// The facade, the HTTP server and the eval harness all build their model
// sets from registered Specs instead of hard-coding AB/SB wiring, so
// adding a recommender is a registry entry, not a surgery. Every model is
// built once per deployment and shared by all of its sessions: a model
// holds no session state (SB's region of interest is read from the
// session's trace.History).

// Env is what model construction may draw on: the tile source (the
// pyramid) and, for trace-trained models, the training traces. TrainHook
// is the facade's test seam — Build invokes it once per trace-trained
// model so tests can prove a deployment trains each model exactly once.
type Env struct {
	Tiles     TileSource
	Traces    []*trace.Trace
	TrainHook func(name string)
}

// Spec describes one recommender kind to the registry.
type Spec struct {
	// Name is the registry key and must equal the built model's Name().
	Name string
	// Trains marks trace-trained specs: Build consumes Env.Traces and the
	// deployment must supply them (online specs ignore the traces).
	Trains bool
	// Prior is the model's column of the default per-phase allocation
	// table: the number of prefetch slots it claims for phase ph out of
	// budget k. Columns are resolved in registry order, each claim clamped
	// to the budget still unclaimed; a negative claim takes the whole
	// remainder. core.NewRegistryPolicy turns the columns into an
	// AllocationPolicy.
	Prior func(ph trace.Phase, k int) int
	// Build constructs the shared model, once per deployment.
	Build func(env Env) (Model, error)
}

// PriorColumn pairs a model name with its prior claim, in registry order —
// the raw material of core.NewRegistryPolicy.
type PriorColumn struct {
	Model string
	Claim func(ph trace.Phase, k int) int
}

// Registry is an ordered, validated set of Specs.
type Registry struct {
	specs []Spec
}

// NewRegistry validates and freezes the given specs: every spec needs a
// unique non-empty name, a Build constructor and a Prior column.
func NewRegistry(specs ...Spec) (*Registry, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("recommend: registry needs at least one spec")
	}
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if s.Name == "" {
			return nil, fmt.Errorf("recommend: spec with empty name")
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("recommend: duplicate spec %q", s.Name)
		}
		seen[s.Name] = true
		if s.Build == nil {
			return nil, fmt.Errorf("recommend: spec %q has no Build constructor", s.Name)
		}
		if s.Prior == nil {
			return nil, fmt.Errorf("recommend: spec %q has no prior column", s.Name)
		}
	}
	return &Registry{specs: append([]Spec(nil), specs...)}, nil
}

// Specs returns the registered specs in order.
func (r *Registry) Specs() []Spec { return append([]Spec(nil), r.specs...) }

// Build constructs every spec's shared model once — the deployment's
// single training pass over the recommenders — and returns them as a Set.
// Trace-trained specs fail fast when env.Traces is empty instead of
// silently training on nothing.
func (r *Registry) Build(env Env) (*Set, error) {
	models := make([]Model, len(r.specs))
	for i, s := range r.specs {
		if s.Trains {
			if len(env.Traces) == 0 {
				return nil, fmt.Errorf("recommend: spec %q is trace-trained but no traces were supplied", s.Name)
			}
			if env.TrainHook != nil {
				env.TrainHook(s.Name)
			}
		}
		m, err := s.Build(env)
		if err != nil {
			return nil, fmt.Errorf("recommend: build %q: %w", s.Name, err)
		}
		models[i] = m
	}
	return &Set{specs: r.specs, models: models}, nil
}

// Set is the output of one Registry.Build pass: the deployment's one model
// slice, which every session engine of the deployment ranks with.
type Set struct {
	specs  []Spec
	models []Model
}

// Models returns the shared models in registry order. Callers must not
// modify the slice.
func (s *Set) Models() []Model { return s.models }

// SessionModel is a shared Model with a no-op Observe. It and Session
// remain only for the benchmark/ probes, which still call both, until
// their rewrite onto Models (ROADMAP item 1).
type SessionModel struct{ Model }

// Observe is a no-op: the session's trace.History carries the ROI.
func (SessionModel) Observe(trace.Request) {}

// Session returns the shared models in registry order, each wrapped in a
// SessionModel.
func (s *Set) Session() []SessionModel {
	out := make([]SessionModel, len(s.models))
	for i, m := range s.models {
		out[i] = SessionModel{m}
	}
	return out
}

// Names returns the model names in registry order.
func (s *Set) Names() []string {
	out := make([]string, len(s.specs))
	for i, sp := range s.specs {
		out[i] = sp.Name
	}
	return out
}

// Hotspot returns the set's shared online hotspot model — the counter
// table deployments feed with cache outcomes — or nil when the registry
// has no hotspot column.
func (s *Set) Hotspot() *Hotspot {
	for _, m := range s.models {
		if h, ok := m.(*Hotspot); ok {
			return h
		}
	}
	return nil
}

// Columns returns the specs' prior columns in registry order.
func (s *Set) Columns() []PriorColumn {
	out := make([]PriorColumn, len(s.specs))
	for i, sp := range s.specs {
		out[i] = PriorColumn{Model: sp.Name, Claim: sp.Prior}
	}
	return out
}

// Rest is the prior claim that takes the whole unclaimed remainder.
const Rest = -1

// ABSpec registers the Actions-Based Markov recommender of the given
// order: trace-trained, shared by every session. Its default
// prior is the paper's §5.4.3 column — the first four slots in Foraging
// and Navigation, nothing in Sensemaking.
func ABSpec(order int) Spec {
	return Spec{
		Name:   "markov" + strconv.Itoa(order),
		Trains: true,
		Prior: func(ph trace.Phase, k int) int {
			if ph == trace.Sensemaking {
				return 0
			}
			return 4
		},
		Build: func(env Env) (Model, error) {
			return NewAB(order, env.Traces)
		},
	}
}

// SBSpec registers the Signature-Based recommender restricted to the
// named signatures: training-free, shared by every session. Its
// default prior is the §5.4.3 remainder column — everything the earlier
// columns left unclaimed, which in Sensemaking is the whole budget.
func SBSpec(sigs ...string) Spec {
	name := "sb"
	if len(sigs) == 1 {
		name = "sb:" + sigs[0]
	}
	return Spec{
		Name:  name,
		Prior: func(trace.Phase, int) int { return Rest },
		Build: func(env Env) (Model, error) {
			if env.Tiles == nil {
				return nil, fmt.Errorf("SB needs a tile source")
			}
			return NewSB(env.Tiles, WithSignatures(sigs...)), nil
		},
	}
}

// HotspotSpec registers the online cross-session hotspot recommender:
// training-free, one shared counter table for the whole deployment. When
// training traces are available the table is seeded with their request
// frequencies — the same ahead-of-time popularity the Doshi baseline
// fixes forever, except here it is just the starting point: live
// consumption keeps refreshing the table and the EWMA decay forgets
// seeds the population stops visiting. Its default prior claims a single
// slot in every phase once the budget reaches 3 tiles (below that the
// paper's two models keep everything).
func HotspotSpec() Spec {
	return Spec{
		Name: "hotspot",
		Prior: func(ph trace.Phase, k int) int {
			if k >= 3 {
				return 1
			}
			return 0
		},
		Build: func(env Env) (Model, error) {
			h := NewHotspot(HotspotConfig{})
			for _, tr := range env.Traces {
				for _, r := range tr.Requests {
					h.ObserveConsumption(r.Coord, r.Phase)
				}
			}
			return h, nil
		},
	}
}

// DefaultSpecs is the standard registry composition and the owner of the
// default per-phase prior table. With hotspot == nil it is exactly the
// paper's tuned §5.4.3 hybrid: AB claims min(k, 4) in Foraging and
// Navigation, SB the remainder and all of Sensemaking. With a hotspot
// config the table grows a third column: the hotspot model takes one slot
// in every phase (for k >= 3), funded by AB in Foraging/Navigation (whose
// first-4 cap becomes first-3) and by SB's monopoly in Sensemaking — at
// the headline k=5 that is AB 3 / hotspot 1 / SB 1 in Foraging and
// Navigation, and SB 4 / hotspot 1 in Sensemaking.
func DefaultSpecs(abOrder int, sbSigs []string, hotspot *HotspotConfig) []Spec {
	ab := ABSpec(abOrder)
	sb := SBSpec(sbSigs...)
	if hotspot == nil {
		return []Spec{ab, sb}
	}
	ab.Prior = func(ph trace.Phase, k int) int {
		if ph == trace.Sensemaking {
			return 0
		}
		// First-3 cap, but never so greedy that the hotspot's guaranteed
		// slot at k >= 3 is squeezed out (at k=3 AB takes 2, hotspot 1).
		if k >= 4 {
			return 3
		}
		if k == 3 {
			return 2
		}
		return k
	}
	return []Spec{ab, HotspotSpec(), sb}
}
