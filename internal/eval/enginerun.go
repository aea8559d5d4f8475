package eval

import (
	"fmt"
	"time"

	"forecache/internal/backend"
	"forecache/internal/core"
	"forecache/internal/phase"
	"forecache/internal/recommend"
)

// EngineRun reports one end-to-end middleware measurement: a model (or the
// full hybrid engine) at one fetch size, replayed over the held-out traces
// through the real cache manager, with the paper's latency constants.
type EngineRun struct {
	Model      string
	K          int
	HitRate    float64
	AvgLatency time.Duration
	Requests   int
}

// EngineSetup builds the per-fold pieces an engine needs.
type EngineSetup func(f fold) (models []recommend.Model, policy core.AllocationPolicy, cls *phase.Classifier, err error)

// SingleEngineSetup wraps a ModelFactory into an engine setup with all
// slots allocated to that model and no phase classifier.
func SingleEngineSetup(factory ModelFactory) EngineSetup {
	return func(f fold) ([]recommend.Model, core.AllocationPolicy, *phase.Classifier, error) {
		m, err := factory(f.train)
		if err != nil {
			return nil, nil, nil, err
		}
		return []recommend.Model{m}, core.SinglePolicy{Model: m.Name()}, nil, nil
	}
}

// RegistryEngineSetup builds an engine from registered recommender specs:
// the per-fold model set comes from Registry.Build over the training
// traces and the allocation policy from the registry's prior columns —
// the same construction path the production facade uses, so experiments
// measure exactly what deployments run. The optional hotspot spec gives
// the eval path the 3-way table.
func (h *Harness) RegistryEngineSetup(specs []recommend.Spec) EngineSetup {
	return func(f fold) ([]recommend.Model, core.AllocationPolicy, *phase.Classifier, error) {
		reg, err := recommend.NewRegistry(specs...)
		if err != nil {
			return nil, nil, nil, err
		}
		set, err := reg.Build(recommend.Env{Tiles: h.Pyr, Traces: f.train})
		if err != nil {
			return nil, nil, nil, err
		}
		policy, err := core.NewRegistryPolicy(set.Columns())
		if err != nil {
			return nil, nil, nil, err
		}
		cls, err := h.classifier(f, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		return set.Session(), policy, cls, nil
	}
}

// classifier returns the fold's phase classifier on a feature subset (nil =
// all six). The all-six one is trained once per harness: table1's last row
// and every multi-model experiment would otherwise refit the identical
// leave-one-user-out SVM, which was most of `bench all`'s wall time.
func (h *Harness) classifier(f fold, features []int) (*phase.Classifier, error) {
	if cls, ok := h.classifiers[f.user]; ok && features == nil {
		return cls, nil
	}
	cls, err := phase.Train(h.sampleRequests(f.train), phase.TrainConfig{Features: features})
	if err == nil && features == nil {
		h.classifiers[f.user] = cls
	}
	return cls, err
}

// HybridEngineSetup builds the paper's full engine — AB + SB models, the
// trained phase classifier and the spec's allocation table — through the
// registry path, like every other multi-model engine.
func (h *Harness) HybridEngineSetup(spec HybridSpec) EngineSetup {
	return h.RegistryEngineSetup(spec.specs())
}

// RunEngineLOO replays the held-out traces through a real middleware
// engine (cache manager + DBMS adapter) per fold and fetch size, returning
// hit rates and average response latency under lm. This is the measurement
// behind Figures 12 and 13 and the §5.5 headline numbers.
func (h *Harness) RunEngineLOO(name string, setup EngineSetup, ks []int, lm backend.LatencyModel) ([]EngineRun, error) {
	h.withDefaults()
	type agg struct {
		hits, misses int
	}
	sums := make(map[int]*agg, len(ks))
	for _, k := range ks {
		sums[k] = &agg{}
	}
	for _, fold := range h.folds() {
		models, policy, cls, err := setup(fold)
		if err != nil {
			return nil, fmt.Errorf("eval: engine setup %s: %w", name, err)
		}
		db := backend.NewDBMS(h.Pyr, lm, nil)
		for _, k := range ks {
			eng, err := core.NewEngine(db, cls, policy, models, core.Config{
				K: k, D: h.D, HistoryLen: h.HistoryLen, RecentTiles: h.RecentTiles(),
			})
			if err != nil {
				return nil, err
			}
			for _, tr := range fold.test {
				eng.Reset()
				for _, r := range tr.Requests {
					if _, err := eng.Request(r.Coord); err != nil {
						return nil, fmt.Errorf("eval: replay %s k=%d: %w", name, k, err)
					}
				}
			}
			st := eng.CacheStats()
			sums[k].hits += st.Hits
			sums[k].misses += st.Misses
		}
	}
	out := make([]EngineRun, 0, len(ks))
	for _, k := range ks {
		a := sums[k]
		total := a.hits + a.misses
		run := EngineRun{Model: name, K: k, Requests: total}
		if total > 0 {
			run.HitRate = float64(a.hits) / float64(total)
			run.AvgLatency = time.Duration(
				(float64(a.hits)*float64(lm.Hit) + float64(a.misses)*float64(lm.Miss)) / float64(total))
		}
		out = append(out, run)
	}
	return out, nil
}

// RecentTiles is the LRU region size used in engine replays. The paper
// reserves the remaining cache space for the last n requested tiles; we
// use the history window size.
func (h *Harness) RecentTiles() int { return h.HistoryLen }
