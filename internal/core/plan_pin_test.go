package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"reflect"
	"slices"
	"testing"

	"climber/internal/dataset"
	"climber/internal/paa"
	"climber/internal/storage"
)

// planStepsPin is the SHA-256 of every plan TestPlanStepsPinned builds,
// step by step in rank order.
const planStepsPin = "c1be5d20954320c2b44e1bf0aedf4b0b32f38b13b770491846adfd811f95e262"

// TestPlanStepsPinned pins the planner's product step by step: the ranked
// order, each step's partition and exact cluster set, and the OD, PathLen
// and Est scores behind the order. The legacy oracle pins coverage only; the
// order and the scores decide which partitions a budgeted or progressive
// query reaches and what explain reports, so any change to them moves the
// hash.
func TestPlanStepsPinned(t *testing.T) {
	h := sha256.New()
	plans := 0
	for _, capacity := range []int{50, 2000} {
		cfg := testConfig()
		cfg.Capacity = capacity
		ix, ds, _, _ := buildTestIndex(t, 2000, cfg)
		_, qs := dataset.Queries(ds, 12, 42)
		for _, q := range qs {
			for _, qlen := range []int{len(q), 33} {
				for _, v := range []Variant{VariantKNN, VariantAdaptive2X, VariantAdaptive4X, VariantODSmallest} {
					for _, k := range []int{1, 20, 200} {
						for _, maxParts := range []int{0, 2} {
							opts := SearchOptions{K: k, Variant: v, MaxPartitions: maxParts, Prefix: qlen < len(q)}
							steps := planSteps(t, ix, q[:qlen], opts)
							checkStepOrder(t, steps)
							hashSteps(h, steps)
							plans++
						}
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != planStepsPin {
		t.Fatalf("%d plans hash to %s, pinned %s", plans, got, planStepsPin)
	}
}

// planSteps runs the pure planning half of Index.Query for one query:
// signatures, candidate groups, the base target and the variant's plan.
func planSteps(t *testing.T, ix *Index, q []float64, opts SearchOptions) []PlanStep {
	t.Helper()
	skel := ix.Skeleton()
	tr := skel.Transformer
	if len(q) != skel.SeriesLen {
		var err error
		if tr, err = paa.NewTransformer(len(q), skel.Cfg.Segments); err != nil {
			t.Fatal(err)
		}
	}
	rs, ri := skel.Pivots.Dual(tr.Transform(q))
	cands, bestOD := skel.Assigner.Candidates(rs, ri)
	base := skel.selectTarget(cands, rs, bestOD)
	return stepsOf(skel.plan(base, rs, ri, bestOD, opts))
}

// stepsOf reads the ranked steps out of the planner's product, which is
// either the step slice itself or a struct carrying it as Steps, so the pin
// holds across a change of that container.
func stepsOf(plan any) []PlanStep {
	v := reflect.Indirect(reflect.ValueOf(plan))
	if v.Kind() == reflect.Struct {
		v = v.FieldByName("Steps")
	}
	return v.Interface().([]PlanStep)
}

// checkStepOrder asserts the rank order — OD ascending, then PathLen
// descending, then Est descending, then partition ascending — and that no
// step carries an empty, non-nil cluster set (a step that scans nothing).
func checkStepOrder(t *testing.T, steps []PlanStep) {
	t.Helper()
	for i, st := range steps {
		if st.Clusters != nil && len(st.Clusters) == 0 {
			t.Fatalf("step %d (partition %d) plans an empty cluster set", i, st.Partition)
		}
		if i == 0 {
			continue
		}
		p := steps[i-1]
		ok := p.OD < st.OD ||
			p.OD == st.OD && (p.PathLen > st.PathLen ||
				p.PathLen == st.PathLen && (p.Est > st.Est ||
					p.Est == st.Est && p.Partition < st.Partition))
		if !ok {
			t.Fatalf("step %d %+v is not ranked after step %d %+v", i, st, i-1, p)
		}
	}
}

// hashSteps writes one plan into h: its length, then per step the
// partition, the sorted cluster IDs (-1 for a whole partition), OD, PathLen
// and Est.
func hashSteps(h hash.Hash, steps []PlanStep) {
	put := func(v int64) { _ = binary.Write(h, binary.LittleEndian, v) }
	put(int64(len(steps)))
	for _, st := range steps {
		put(int64(st.Partition))
		if st.Clusters == nil {
			put(-1)
		} else {
			ids := make([]storage.ClusterID, 0, len(st.Clusters))
			for id := range st.Clusters {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			put(int64(len(ids)))
			for _, id := range ids {
				put(int64(id))
			}
		}
		put(int64(st.OD))
		put(int64(st.PathLen))
		put(int64(st.Est))
	}
}
