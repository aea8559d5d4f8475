package core

import (
	"fmt"

	"forecache/internal/recommend"
	"forecache/internal/trace"
)

// AllocationPolicy decides, after every request, how many of the k
// prefetch slots each recommendation model receives given the user's
// predicted analysis phase — the cache manager's "allocation strategy"
// (paper §3, §4.4). Models names every model it can allocate to, so
// NewEngine can check them without calling Allocations: a deployment's
// shared learning policy must not change state because a session was built.
type AllocationPolicy interface {
	// Allocations returns tile slots per model name; values should sum to
	// at most k.
	Allocations(ph trace.Phase, k int) map[string]int
	// Models returns the model names Allocations can return.
	Models() []string
}

// RegistryPolicy is the allocation policy a recommender registry's prior
// columns compose to: for each phase the registered models' claims are
// resolved in registry order, every claim clamped to the budget still
// unclaimed, and a negative claim (recommend.Rest) takes the whole
// remainder. With the default two-model registry this reproduces the
// §5.4.3 hybrid table exactly (AB's first-4 claim, SB the rest and all of
// Sensemaking) for every k; a third registered model is simply one more
// column, never a new policy type.
type RegistryPolicy struct {
	columns []recommend.PriorColumn
	models  []string
}

// NewRegistryPolicy builds the policy over the registry's prior columns
// (recommend.Set.Columns()). Every column needs a distinct model name and
// a claim function.
func NewRegistryPolicy(columns []recommend.PriorColumn) (*RegistryPolicy, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("core: registry policy needs at least one prior column")
	}
	seen := make(map[string]bool, len(columns))
	models := make([]string, 0, len(columns))
	for _, col := range columns {
		if col.Model == "" || col.Claim == nil {
			return nil, fmt.Errorf("core: registry policy column %q is incomplete", col.Model)
		}
		if seen[col.Model] {
			return nil, fmt.Errorf("core: duplicate model %q in registry policy", col.Model)
		}
		seen[col.Model] = true
		models = append(models, col.Model)
	}
	return &RegistryPolicy{columns: append([]recommend.PriorColumn(nil), columns...), models: models}, nil
}

// Models returns the registered model names in column order.
func (p *RegistryPolicy) Models() []string { return append([]string(nil), p.models...) }

// Allocations resolves the prior columns against budget k.
func (p *RegistryPolicy) Allocations(ph trace.Phase, k int) map[string]int {
	out := make(map[string]int, len(p.columns))
	if k <= 0 {
		return out
	}
	remaining := k
	for _, col := range p.columns {
		if remaining == 0 {
			break
		}
		n := col.Claim(ph, k)
		if n < 0 || n > remaining {
			n = remaining
		}
		if n > 0 {
			out[col.Model] = n
			remaining -= n
		}
	}
	return out
}

// SinglePolicy routes every slot to one model regardless of phase; the
// baselines (Momentum, Hotspot, lone AB or SB models) run under it.
type SinglePolicy struct{ Model string }

// Models returns the one model.
func (p SinglePolicy) Models() []string { return []string{p.Model} }

// Allocations gives all k slots to the single model.
func (p SinglePolicy) Allocations(ph trace.Phase, k int) map[string]int {
	if k <= 0 {
		return map[string]int{}
	}
	return map[string]int{p.Model: k}
}
