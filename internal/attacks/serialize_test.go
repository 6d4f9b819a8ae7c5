package attacks

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"randfill/internal/sim"
)

func collectedStats(t *testing.T, seed uint64, n int) *CollisionStats {
	t.Helper()
	cfg := CollisionConfig{Sim: sim.AttackerConfig(), Seed: seed}
	a := NewCollision(cfg)
	a.Collect(n)
	return a.Stats()
}

func TestCollisionStatsRoundTripExact(t *testing.T) {
	s := collectedStats(t, 7, 200)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got := &CollisionStats{}
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatal("decoded CollisionStats differs from original")
	}
}

// TestCollisionStatsRestoredMergeExact is the resume contract: merging a
// checkpoint-restored shard into a live one must give exactly the state an
// uninterrupted run would have — down to the float bits TimingChart reads.
func TestCollisionStatsRestoredMergeExact(t *testing.T) {
	shards := NewShards(CollisionConfig{Sim: sim.AttackerConfig(), Seed: 3}, 3)
	for _, a := range shards {
		a.Collect(120)
	}
	live := MergeShardStats(shards)

	states := make([]*CollisionStats, len(shards))
	for i, a := range shards {
		data, err := a.Stats().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		states[i] = &CollisionStats{}
		if err := states[i].UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
	}
	restored := MergeStats(states)
	if !reflect.DeepEqual(restored, live) {
		t.Fatal("merge of restored shards differs from merge of live shards")
	}
}

func TestCollisionStatsUnmarshalRejectsCorrupt(t *testing.T) {
	s := collectedStats(t, 9, 50)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{
		nil,
		data[:3],
		data[:len(data)/2],
		data[:len(data)-1],
		append(append([]byte{}, data...), 0xff),
	} {
		got := &CollisionStats{}
		if err := got.UnmarshalBinary(bad); err == nil {
			t.Fatalf("len %d: want error", len(bad))
		}
	}
}

// TestSearchResultRoundTrip: SearchResult is fixed-size data, which the
// experiments checkpoint codec writes with little-endian encoding/binary.
// Every field comes back exactly (a 2^40 count, a negative CorrectPairs, a
// fractional SigmaT), and a payload one byte short does not decode.
func TestSearchResultRoundTrip(t *testing.T) {
	for _, r := range []SearchResult{
		{},
		{Measurements: 123456, Success: true, CorrectPairs: 120, SigmaT: 3.25},
		{Measurements: 1 << 40, Success: false, CorrectPairs: -1, SigmaT: 0.0625},
	} {
		var b bytes.Buffer
		if err := binary.Write(&b, binary.LittleEndian, r); err != nil {
			t.Fatal(err)
		}
		data := b.Bytes()
		if n := binary.Size(r); n != len(data) {
			t.Fatalf("encoded %d bytes, binary.Size says %d", len(data), n)
		}
		var got SearchResult
		if err := binary.Read(bytes.NewReader(data), binary.LittleEndian, &got); err != nil {
			t.Fatal(err)
		}
		if got != r {
			t.Fatalf("round trip: got %+v, want %+v", got, r)
		}
		if err := binary.Read(bytes.NewReader(data[:len(data)-1]), binary.LittleEndian, &got); err == nil {
			t.Fatal("short payload: want error")
		}
	}
}
