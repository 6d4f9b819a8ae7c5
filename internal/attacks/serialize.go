package attacks

import (
	"encoding/binary"
	"errors"

	"randfill/internal/stats"
)

// Binary encodings for the attack accumulators the checkpoint layer
// persists. Exactness is the contract: floats are stored as IEEE-754 bit
// patterns, so a shard loaded from a checkpoint merges to the same bytes
// as the live shard it replaces.

// ErrCorrupt reports an attack-state encoding that does not frame
// correctly; the checkpoint layer treats the shard as missing.
var ErrCorrupt = errors.New("attacks: corrupt serialized state")

// MarshalBinary implements encoding.BinaryMarshaler. The full mergeable
// state is carried — pair set, ground truth, per-pair grouped timings,
// overall timing, sample count — so an UnmarshalBinary'd state can stand
// in for a live shard in Merge, including Merge's same-victim validation.
func (s *CollisionStats) MarshalBinary() ([]byte, error) {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(s.pairs)))
	for _, p := range s.pairs {
		lg := byte(0)
		if p.lineGranular {
			lg = 1
		}
		out = append(out, byte(p.i), byte(p.j), lg)
	}
	for _, tr := range s.truth {
		out = binary.LittleEndian.AppendUint32(out, uint32(int32(tr)))
	}
	for _, g := range s.groups {
		out = g.AppendBinary(out)
	}
	out = stats.AppendRunning(out, s.timing)
	return binary.LittleEndian.AppendUint64(out, s.n), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *CollisionStats) UnmarshalBinary(data []byte) error {
	if len(data) < 4 {
		return ErrCorrupt
	}
	np := int(binary.LittleEndian.Uint32(data[:4]))
	data = data[4:]
	if np < 0 || len(data) < np*3 {
		return ErrCorrupt
	}
	s.pairs = make([]bytePair, np)
	for i := range s.pairs {
		s.pairs[i] = bytePair{i: int(data[0]), j: int(data[1]), lineGranular: data[2] == 1}
		data = data[3:]
	}
	if len(data) < np*4 {
		return ErrCorrupt
	}
	s.truth = make([]int, np)
	for i := range s.truth {
		s.truth[i] = int(int32(binary.LittleEndian.Uint32(data[:4])))
		data = data[4:]
	}
	s.groups = make([]*stats.Grouped, np)
	for i := range s.groups {
		s.groups[i] = &stats.Grouped{}
		var err error
		if data, err = s.groups[i].DecodeFrom(data); err != nil {
			return ErrCorrupt
		}
	}
	var err error
	if s.timing, data, err = stats.DecodeRunning(data); err != nil {
		return ErrCorrupt
	}
	if len(data) != 8 {
		return ErrCorrupt
	}
	s.n = binary.LittleEndian.Uint64(data)
	return nil
}
