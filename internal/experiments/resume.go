package experiments

import (
	"bytes"
	"context"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"

	"randfill/internal/checkpoint"
	"randfill/internal/fabric"
	"randfill/internal/parexp"
	"randfill/internal/rng"
)

// unitCodec versions the checkpoint payload encoding (encodeUnit); version
// 1 was one codec per unit type. The config hash binds it, so a store
// written under another encoding reads as foreign instead of decoding into
// the wrong fields or tripping the store's first-writer-wins check.
const unitCodec = 2

// configHash binds a checkpoint to everything that determines a unit's
// bytes: the experiment, every budget knob, the master seed, the fixed
// shard count, the RNG stream version and the unit codec. Workers is
// deliberately absent — worker-count invariance means a run checkpointed
// at -workers 8 may resume at -workers 1 and still reproduce the
// uninterrupted output exactly.
func (sc Scale) configHash(exp string) uint64 {
	return checkpoint.Hash(
		exp,
		fmt.Sprintf("mc=%d", sc.MonteCarloTrials),
		fmt.Sprintf("cap=%d", sc.AttackMaxSamples),
		fmt.Sprintf("batch=%d", sc.AttackBatch),
		fmt.Sprintf("fig2=%d", sc.Figure2Samples),
		fmt.Sprintf("cbc=%d", sc.CBCBytes),
		fmt.Sprintf("spec=%d", sc.SpecAccesses),
		fmt.Sprintf("seed=%d", sc.Seed),
		fmt.Sprintf("shards=%d", parexp.Shards),
		fmt.Sprintf("stream=%d", rng.StreamVersion),
		fmt.Sprintf("codec=%d", unitCodec),
	)
}

// unitPlan is an experiment's fixed work-unit plan: n units, each a pure
// function of (Scale, i), and a render from the unit results, in unit
// order, to the experiment's table. It is the single description behind
// both execution paths — the in-process runShards driver and, through
// PlanFor, the multi-process fabric — so a unit computes identical bytes
// no matter which path ran it. Building a plan simulates nothing: inputs
// the units share (compiled traces) are built on first use, so rendering
// from a complete checkpoint store computes nothing either.
type unitPlan[T any] struct {
	n int
	// seed is unit i's checkpoint seed; nil means sc.Seed.
	seed   func(i int) uint64
	run    func(ctx context.Context, i int) (T, error)
	render func(units []T) *Table
}

// experiment registers a unit plan under name: Run executes the plan
// through runShards and renders its table, and PlanFor hands the same plan
// to the fabric.
func experiment[T any](name, desc string, plan func(Scale) unitPlan[T]) Experiment {
	return Experiment{
		Name:        name,
		Description: desc,
		Run: func(ctx context.Context, sc Scale) (*Table, error) {
			p := plan(sc)
			units, err := runShards(ctx, sc, name, p)
			if err != nil {
				return nil, err
			}
			return p.render(units), nil
		},
		plan: func(sc Scale) fabric.Plan {
			p := plan(sc)
			meta := unitMeta(sc, name, p)
			return fabric.Plan{
				Name:  name,
				Units: p.n,
				Meta:  meta,
				RunUnit: func(ctx context.Context, i int, store *checkpoint.Store) error {
					_, err := runUnit(ctx, p, i, store, meta)
					return err
				},
			}
		},
	}
}

// unitMeta returns unit i's checkpoint identity under sc.
func unitMeta[T any](sc Scale, exp string, p unitPlan[T]) func(i int) checkpoint.Meta {
	hash := sc.configHash(exp)
	return func(i int) checkpoint.Meta {
		seed := sc.Seed
		if p.seed != nil {
			seed = p.seed(i)
		}
		return checkpoint.Meta{
			Experiment:    exp,
			Shard:         i,
			Seed:          seed,
			ConfigHash:    hash,
			StreamVersion: rng.StreamVersion,
		}
	}
}

// runUnit computes unit i and, with a store, flushes it as one checkpoint.
func runUnit[T any](ctx context.Context, p unitPlan[T], i int, store *checkpoint.Store, meta func(int) checkpoint.Meta) (T, error) {
	v, err := p.run(ctx, i)
	if err != nil || store == nil {
		return v, err
	}
	data, err := encodeUnit(v)
	if err != nil {
		return v, err
	}
	return v, store.Put(meta(i), data)
}

// runShards executes a unitPlan's independent work units with optional
// checkpointing. Unit i's result must be a pure function of (sc, i) — never
// of worker count or of other units — which is what makes the recovery
// story simple: a unit either completed (its checkpoint holds the exact
// result bytes) or it didn't (it re-runs from scratch).
//
// With sc.Checkpoint set, each unit is flushed through the store the moment
// it completes, inside the worker, so a cancellation or crash between units
// loses only work in flight. With sc.Resume also set, units whose
// checkpoint loads (and whose meta — seed, config hash, stream version —
// matches) are not re-run; torn, corrupt, or mismatched checkpoints read as
// missing and the unit re-runs. Results are returned in unit order
// regardless of which were restored.
//
// sc.Track, when set, observes each executed unit starting and durably
// finishing (restored units are never reported): the hook behind the
// hard-kill path's best-effort aborted markers.
func runShards[T any](ctx context.Context, sc Scale, exp string, p unitPlan[T]) ([]T, error) {
	meta := unitMeta(sc, exp, p)
	out := make([]T, p.n)
	var missing []int
	for i := range out {
		if sc.Checkpoint != nil && sc.Resume {
			payload, ok, err := sc.Checkpoint.Get(meta(i))
			if err != nil {
				return nil, err
			}
			if ok {
				if v, err := decodeUnit[T](payload); err == nil {
					out[i] = v
					continue
				} // an undecodable payload reads as missing: the unit re-runs
			}
		}
		missing = append(missing, i)
	}
	if len(missing) == 0 {
		return out, nil
	}
	err := sc.engine().ForEachCtx(ctx, len(missing), func(ctx context.Context, k int) error {
		i := missing[k]
		if sc.Track != nil {
			sc.Track(meta(i), false)
		}
		v, err := runUnit(ctx, p, i, sc.Checkpoint, meta)
		if err != nil {
			return err
		}
		out[i] = v
		if sc.Track != nil {
			sc.Track(meta(i), true)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// errUnitSize reports a unit payload whose length is not its value's
// encoded size.
var errUnitSize = errors.New("experiments: unit payload has the wrong size")

// encodeUnit is the checkpoint codec of every unit result. A type whose
// pointer implements encoding.BinaryMarshaler (attacks.CollisionStats)
// encodes itself; every other unit result is fixed-size data with exported
// fields, written by encoding/binary — floats as their IEEE-754 bit
// patterns, so NaN payloads, -0 and ±Inf round-trip exactly. Either way
// the bytes are a pure function of the value.
func encodeUnit[T any](v T) ([]byte, error) {
	if m, ok := any(&v).(encoding.BinaryMarshaler); ok {
		return m.MarshalBinary()
	}
	var b bytes.Buffer
	err := binary.Write(&b, binary.LittleEndian, v)
	return b.Bytes(), err
}

// decodeUnit inverts encodeUnit, rejecting a payload that is short or
// carries trailing bytes.
func decodeUnit[T any](data []byte) (T, error) {
	var v T
	if u, ok := any(&v).(encoding.BinaryUnmarshaler); ok {
		return v, u.UnmarshalBinary(data)
	}
	if binary.Size(v) != len(data) {
		return v, errUnitSize
	}
	return v, binary.Read(bytes.NewReader(data), binary.LittleEndian, &v)
}

// PlanFor returns the named experiment's work-unit plan under sc, in the
// shape internal/fabric schedules across processes; ok is false for an
// unregistered name. Every process in a fabric derives the plan from the
// same (name, Scale), so unit identities agree everywhere — a lease whose
// identity doesn't match is foreign and is refused, not guessed at.
func PlanFor(name string, sc Scale) (fabric.Plan, bool) {
	e, ok := ByName(name)
	if !ok {
		return fabric.Plan{}, false
	}
	return e.plan(sc), true
}
