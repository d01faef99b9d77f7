package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"

	"climber/internal/dataset"
	"climber/internal/series"
)

// inputs is everything a run sends or checks against.
//
// The dataset, the index built from it and the ground-truth queries are
// the workload's own: drawn from dataSeed, the same on every run, the way
// an ANN benchmark ships one dataset and one query set. That makes
// recall_at_k a pure function of the code under test, and keeps index
// shape (which moves qps by more than 10 % from one random skeleton to
// the next) out of the run-to-run spread. The --seed argument draws the
// traffic: which members and held-out series form the query pool, the
// order of the append stream, and every client's operation sequence. The
// servers only ever see the generated requests.
type inputs struct {
	base *series.Dataset // the N indexed series; record i has ID i

	// pool is the traffic's query pool: poolSize/2 copies of stored series,
	// then poolSize/2 held-out series. poolJSON[i] is pool[i] rendered as a
	// JSON array, so request bodies are assembled by concatenation during
	// the measured phases.
	pool     [][]float64
	poolJSON [][]byte

	// truthQ are the queries with exact answers: truthSize/2 members
	// (truthMemberIDs names them) then truthSize/2 held-out series, none
	// of the latter in any pool; truth[j] is the exact top-k of truthQ[j].
	truthQ         [][]float64
	truthJSON      [][]byte
	truthMemberIDs []int
	truth          [][]series.Result

	// appends is the append stream (ingest-mixed only), appendJSON its
	// rendering, appendOrder the seed's order of its chunks of batchSize.
	appends     *series.Dataset
	appendJSON  [][]byte
	appendOrder []int
}

// dataSeed draws every workload's dataset, index and ground-truth queries.
const dataSeed = 20240404

// heldOutPool is how many never-indexed series the generator sets aside;
// the first truthSize/2 are the held-out truth queries, the seed samples
// its pool half from the rest.
const heldOutPool = 4096

// generate draws base, held-out series and the append stream from ONE
// generator call and slices it, so all three share the generator's
// seed-dependent parameters (SIFT's cluster prototypes) while staying
// disjoint.
func generate(w workload, n int, seed uint64) (*inputs, error) {
	extra := heldOutPool
	if w.appendEvery > 0 {
		extra += appendPool
	}
	all, err := dataset.ByName(w.dataset, n+extra, dataSeed)
	if err != nil {
		return nil, err
	}
	in := &inputs{base: all.Slice(0, n)}
	heldOut := all.Slice(n, n+heldOutPool)
	rng := rand.New(rand.NewPCG(seed, 0x5eed))

	ids, members := dataset.Queries(in.base, truthSize/2, dataSeed+1)
	in.truthMemberIDs = ids
	in.truthQ = members
	for i := 0; i < truthSize/2; i++ {
		in.truthQ = append(in.truthQ, heldOut.Get(i))
	}
	in.truthJSON = renderAll(in.truthQ)

	_, in.pool = dataset.Queries(in.base, poolSize/2, seed)
	for _, i := range rng.Perm(heldOutPool - truthSize/2)[:poolSize/2] {
		in.pool = append(in.pool, heldOut.Get(truthSize/2+i))
	}
	in.poolJSON = renderAll(in.pool)

	if w.appendEvery > 0 {
		in.appends = all.Slice(n+heldOutPool, n+extra)
		in.appendJSON = make([][]byte, in.appends.Len())
		for i := range in.appendJSON {
			in.appendJSON[i] = floatsJSON(in.appends.Get(i))
		}
		in.appendOrder = rng.Perm(in.appends.Len() / batchSize)
	}
	return in, nil
}

func renderAll(qs [][]float64) [][]byte {
	out := make([][]byte, len(qs))
	for i, q := range qs {
		out[i] = floatsJSON(q)
	}
	return out
}

// floatsJSON renders x as a JSON array with shortest round-trip floats,
// so the server decodes exactly the generated values.
func floatsJSON(x []float64) []byte {
	b := make([]byte, 0, len(x)*20)
	b = append(b, '[')
	for i, v := range x {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// offer64 returns a scan callback that ranks float64 records against q
// into tk the way the engine's scans do: early abandon at the current
// k-th distance, push on improvement. Distances are squared.
func offer64(tk *series.TopK, q []float64) func(id int, values []float64) error {
	return func(id int, values []float64) error {
		bound, full := tk.Bound()
		if !full {
			bound = math.Inf(1)
		}
		if d := series.SqDistEarlyAbandonBlocked(q, values, bound); d < bound {
			tk.Push(id, d)
		}
		return nil
	}
}

// exactTopK brute-forces the k nearest base series of q with the repo's
// own float64 early-abandon kernel.
func exactTopK(base *series.Dataset, q []float64, k int) []series.Result {
	tk := series.NewTopK(k)
	offer := offer64(tk, q)
	for id := 0; id < base.Len(); id++ {
		_ = offer(id, base.Get(id)) // offer64 never fails
	}
	return tk.Results()
}

// computeTruth fills in.truth, one goroutine per processor.
func (in *inputs) computeTruth() {
	in.truth = make([][]series.Result, len(in.truthQ))
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(in.truthQ); j += workers {
				in.truth[j] = exactTopK(in.base, in.truthQ[j], topK)
			}
		}(w)
	}
	wg.Wait()
}

// Request bodies. explain switches the server-side span tree on.

func bodyTail(variant string, explain bool) string {
	s := fmt.Sprintf(`,"k":%d,"variant":%q`, topK, variant)
	if explain {
		s += `,"explain":true`
	}
	return s + "}"
}

func searchBody(q []byte, variant string, explain bool) []byte {
	var b bytes.Buffer
	b.Grow(len(q) + 64)
	b.WriteString(`{"query":`)
	b.Write(q)
	b.WriteString(bodyTail(variant, explain))
	return b.Bytes()
}

// prefixJSON cuts the first n values out of a rendered series.
func prefixJSON(q []byte, n int) []byte {
	seen := 0
	for i, c := range q {
		if c == ',' {
			if seen++; seen == n {
				out := append([]byte(nil), q[:i]...)
				return append(out, ']')
			}
		}
	}
	return q
}

func listBody(field string, items [][]byte, tail string) []byte {
	var b bytes.Buffer
	b.WriteString(`{"` + field + `":[`)
	for i, it := range items {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(it)
	}
	b.WriteString("]")
	b.WriteString(tail)
	return b.Bytes()
}

// opStream is one client's deterministic operation sequence.
type opStream struct {
	w      workload
	in     *inputs
	rng    *rand.Rand
	step   int
	client int
	nc     int
	// appendCursor counts the append chunks this client has sent, across
	// phases; chunks are dealt round-robin over clients so no series is
	// sent twice until the pool wraps.
	appendCursor *int
	explain      bool
}

// operation is one request ready to send.
type operation struct {
	kind opKind
	path string
	body []byte
	// appendFirst is the append-pool index of the first series (opAppend).
	appendFirst int
}

func newOpStream(w workload, in *inputs, seed uint64, phase string, client, nc int, appendCursor *int, explain bool) *opStream {
	var h uint64 = 14695981039346656037
	for _, c := range []byte(phase) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return &opStream{w: w, in: in, client: client, nc: nc, appendCursor: appendCursor, explain: explain,
		rng: rand.New(rand.NewPCG(seed, h+uint64(client)))}
}

// appendOp is this client's next chunk of the append stream.
func (s *opStream) appendOp() operation {
	order := s.in.appendOrder
	first := order[(*s.appendCursor*s.nc+s.client)%len(order)] * batchSize
	*s.appendCursor++
	return operation{kind: opAppend, path: "/append", appendFirst: first,
		body: listBody("series", s.in.appendJSON[first:first+batchSize], "}")}
}

func (s *opStream) next() operation {
	kind := opSearch
	if s.w.appendEvery > 0 {
		if s.step%(s.w.appendEvery+1) == s.w.appendEvery {
			kind = opAppend
		}
	} else {
		r := s.rng.IntN(100)
		for k, pct := range s.w.mixPct {
			if r < pct {
				kind = opKind(k)
				break
			}
			r -= pct
		}
	}
	s.step++
	switch kind {
	case opPrefix:
		q := s.in.poolJSON[s.rng.IntN(len(s.in.pool))]
		return operation{kind: kind, path: "/search/prefix",
			body: searchBody(prefixJSON(q, prefixLen), s.w.variant, s.explain)}
	case opBatch:
		items := make([][]byte, batchSize)
		for i := range items {
			items[i] = s.in.poolJSON[s.rng.IntN(len(s.in.pool))]
		}
		return operation{kind: kind, path: "/search/batch",
			body: listBody("queries", items, bodyTail(s.w.variant, s.explain))}
	case opAppend:
		return s.appendOp()
	default:
		q := s.in.poolJSON[s.rng.IntN(len(s.in.pool))]
		return operation{kind: kind, path: "/search", body: searchBody(q, s.w.variant, s.explain)}
	}
}
