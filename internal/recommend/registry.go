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
// adding a recommender is a registry entry, not a surgery.

// Env is what artifact construction may draw on: the tile source (the
// pyramid) and, for trace-trained models, the training traces. TrainHook
// is the facade's test seam — Build invokes it once per trace-trained
// artifact so tests can prove a deployment trains each model exactly once.
type Env struct {
	Tiles     TileSource
	Traces    []*trace.Trace
	TrainHook func(name string)
}

// Artifact is one built (possibly trained) recommender artifact. Session
// returns the per-session Model view: a fresh mutable model for
// recommenders with per-session state (SB's ROI tracker), or the shared
// instance itself for session-free (AB) and deployment-wide (Hotspot) ones.
type Artifact interface {
	Session() Model
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
	// Build constructs the shared artifact, once per deployment.
	Build func(env Env) (Artifact, error)
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

// Build constructs every spec's shared artifact once — the deployment's
// single training pass over the recommenders — and returns the Set that
// stamps out per-session model sets. Trace-trained specs fail fast when
// env.Traces is empty instead of silently training on nothing.
func (r *Registry) Build(env Env) (*Set, error) {
	arts := make([]Artifact, len(r.specs))
	for i, s := range r.specs {
		if s.Trains {
			if len(env.Traces) == 0 {
				return nil, fmt.Errorf("recommend: spec %q is trace-trained but no traces were supplied", s.Name)
			}
			if env.TrainHook != nil {
				env.TrainHook(s.Name)
			}
		}
		a, err := s.Build(env)
		if err != nil {
			return nil, fmt.Errorf("recommend: build %q: %w", s.Name, err)
		}
		arts[i] = a
	}
	return &Set{specs: r.specs, arts: arts}, nil
}

// Set is a registry's built artifact bundle: the shareable
// output of one Registry.Build pass. One Set serves every session of a
// deployment — Session stamps out the cheap per-session model views while
// the trained/shared artifacts are constructed exactly once.
type Set struct {
	specs []Spec
	arts  []Artifact
}

// Session returns a fresh per-session model set, in registry order.
func (s *Set) Session() []Model {
	out := make([]Model, len(s.arts))
	for i, a := range s.arts {
		out[i] = a.Session()
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

// Artifact returns the named spec's built artifact (nil when absent), so
// deployments can reach shared state — e.g. the *Hotspot counter table
// they must feed with cache outcomes.
func (s *Set) Artifact(name string) Artifact {
	for i, sp := range s.specs {
		if sp.Name == name {
			return s.arts[i]
		}
	}
	return nil
}

// Hotspot returns the set's shared online hotspot model, or nil when the
// registry has no hotspot column.
func (s *Set) Hotspot() *Hotspot {
	h, _ := s.Artifact(hotspotName).(*Hotspot)
	return h
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

// hotspotName is the online hotspot model's fixed Name().
const hotspotName = "hotspot"

// sbArtifact stamps out fresh SB recommenders (the ROI tracker is mutable
// per-session state, so unlike AB the model cannot be shared).
type sbArtifact struct {
	src  TileSource
	sigs []string
}

func (a *sbArtifact) Session() Model { return NewSB(a.src, WithSignatures(a.sigs...)) }

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
		Build: func(env Env) (Artifact, error) {
			return NewAB(order, env.Traces)
		},
	}
}

// Session implements Artifact: a trained AB holds no session state, so
// the shared instance is the per-session model.
func (m *AB) Session() Model { return m }

// SBSpec registers the Signature-Based recommender restricted to the
// named signatures: training-free, one fresh instance per session. Its
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
		Build: func(env Env) (Artifact, error) {
			if env.Tiles == nil {
				return nil, fmt.Errorf("SB needs a tile source")
			}
			return &sbArtifact{src: env.Tiles, sigs: sigs}, nil
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
		Name: hotspotName,
		Prior: func(ph trace.Phase, k int) int {
			if k >= 3 {
				return 1
			}
			return 0
		},
		Build: func(env Env) (Artifact, error) {
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
