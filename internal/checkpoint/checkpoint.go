// Package checkpoint is the crash-safe shard store behind resumable
// experiment runs. An experiment that fans its work over a fixed shard plan
// (internal/parexp) writes one checkpoint file per completed shard: the
// shard's identity (experiment, shard index, seed, config hash, RNG stream
// version) plus the serialized mergeable accumulator it produced. A run
// that is killed mid-way can then be resumed: shards whose checkpoints
// verify are loaded, only the missing shards re-execute, and — because the
// shard plan and the merge order are fixed — the final output is
// byte-identical to an uninterrupted run.
//
// Robustness is layered:
//
//   - Writes are atomic (internal/atomicio: temp file + fsync + link or
//     rename), so a crash during Put leaves either no checkpoint or a
//     complete one.
//   - The first writer wins: a unit's frame is written only when no valid
//     frame for it exists, a byte-identical re-write does nothing, and
//     different bytes fail with ErrPurity. Units are pure, so running one
//     twice, in one process or in several, costs work and never bytes.
//   - Every file carries a CRC32-framed body; a torn or bit-flipped file
//     fails verification and reads as "missing", so the shard re-runs
//     instead of corrupting the merge.
//   - The file name and body both bind the full Meta; a checkpoint written
//     by a different configuration (different budgets, seed, shard count,
//     or RNG stream version) is never loaded.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"randfill/internal/atomicio"
)

// magic opens every checkpoint file; the trailing byte is the format
// version.
var magic = [8]byte{'R', 'F', 'C', 'K', 'P', 'T', '0', '1'}

// Meta identifies one shard's checkpoint. All fields participate in
// verification: a stored checkpoint is only returned for a Meta that
// matches it exactly.
type Meta struct {
	// Experiment names the producing experiment, optionally with a stage
	// suffix (e.g. "Table3/cells").
	Experiment string
	// Shard is the shard index within the experiment's fixed shard plan.
	Shard int
	// Seed is the shard's derived RNG seed (informational binding: two
	// configs that agree on everything but seeding hash differently too).
	Seed uint64
	// ConfigHash fingerprints every input that determines the shard's
	// result (budgets, root seed, shard count, ...). See Hash.
	ConfigHash uint64
	// StreamVersion is rng.StreamVersion at write time; shards drawn from
	// an incompatible byte stream must not be merged.
	StreamVersion int
}

// Hooks intercepts store writes so the fault-injection harness
// (internal/faultinject) can fail, corrupt, delay, or kill at precisely
// chosen points. Production runs leave it nil.
type Hooks interface {
	// BeforePut may veto the write by returning an error.
	BeforePut(m Meta) error
	// AfterPut runs once the file is durably published at path; it may
	// damage the file or terminate the process to simulate a crash.
	AfterPut(m Meta, path string)
}

// Store is a directory of per-shard checkpoint files.
type Store struct {
	dir string
	// Hooks, when non-nil, observes every Put. Used only by fault
	// injection; see Hooks.
	Hooks Hooks
}

// Open returns a Store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// FileBase is the shard's canonical file-name stem, without directory or
// extension. The config hash is part of the name, so checkpoints from a
// different configuration of the same experiment coexist without ever being
// confused for each other. The fabric layer reuses the same stem for a
// unit's claim and aborted-marker files, so every per-unit artifact of one
// run sorts and greps together.
func (m Meta) FileBase() string {
	return fmt.Sprintf("%s-s%03d-%016x", sanitize(m.Experiment), m.Shard, m.ConfigHash)
}

// Path returns the absolute path shard m's checkpoint file occupies (whether
// or not it exists yet).
func (s *Store) Path(m Meta) string {
	return filepath.Join(s.dir, m.FileBase()+".ckpt")
}

// path derives the shard's file name; see Meta.FileBase.
func (s *Store) path(m Meta) string { return s.Path(m) }

// sanitize maps an experiment/stage name to a safe file-name fragment.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// ErrPurity reports a write whose identity the store already holds with
// different bytes. Units are pure functions of their Meta, so honest runs
// can only ever write identical frames: a mismatch means a broken
// determinism contract or CRC-colliding corruption, and the run must stop
// rather than guess which frame is right.
var ErrPurity = errors.New("checkpoint: store already holds different bytes for the same identity (purity violation)")

// Put durably records payload as shard m's completed result under the
// store's first-writer-wins rule (see publish): re-putting the bytes the
// store already holds does nothing, and different bytes fail with
// ErrPurity. Hooks see every Put that succeeds, including the no-op one.
func (s *Store) Put(m Meta, payload []byte) error {
	if s.Hooks != nil {
		if err := s.Hooks.BeforePut(m); err != nil {
			return fmt.Errorf("checkpoint: put %s shard %d: %w", m.Experiment, m.Shard, err)
		}
	}
	if _, err := s.publish(m, encode(m, payload)); err != nil {
		return fmt.Errorf("checkpoint: put %s shard %d: %w", m.Experiment, m.Shard, err)
	}
	if s.Hooks != nil {
		s.Hooks.AfterPut(m, s.path(m))
	}
	return nil
}

// publish is the store's one write rule, shared by Put and AdoptFrame:
// frame, which binds m, is written only when no valid frame for m exists.
// The first writer wins. A byte-identical frame is AlreadyPresent; a
// different one fails with ErrPurity and leaves the first in place; a torn
// file, or another identity's frame under m's name, reads as missing to
// Get and is replaced (by a plain atomic rename, so only that rare repair
// is not exclusive).
func (s *Store) publish(m Meta, frame []byte) (AdoptResult, error) {
	path := s.path(m)
	err := atomicio.WriteNew(path, frame, 0o644)
	if err == nil {
		return Adopted, nil
	}
	if !errors.Is(err, fs.ErrExist) {
		return RejectedTorn, err
	}
	existing, err := os.ReadFile(path)
	if err != nil {
		return RejectedTorn, err
	}
	if got, _, derr := decode(existing); derr == nil && got == m {
		if bytes.Equal(existing, frame) {
			return AlreadyPresent, nil
		}
		return RejectedTorn, ErrPurity
	}
	if err := atomicio.WriteFile(path, frame, 0o644); err != nil {
		return RejectedTorn, err
	}
	return Adopted, nil
}

// Get loads shard m's checkpoint. ok is false when no checkpoint exists,
// when the file fails CRC or framing verification (torn/corrupt write), or
// when the stored identity does not match m — in every such case the
// caller simply re-runs the shard. The error return is reserved for real
// I/O failures (e.g. permission errors), which should stop the run.
func (s *Store) Get(m Meta) (payload []byte, ok bool, err error) {
	data, err := os.ReadFile(s.path(m))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("checkpoint: get %s shard %d: %w", m.Experiment, m.Shard, err)
	}
	got, payload, derr := decode(data)
	if derr != nil || got != m {
		// Corrupt, torn, or foreign: treat as missing so the shard re-runs.
		return nil, false, nil
	}
	return payload, true, nil
}

// encode frames the checkpoint file:
//
//	magic[8] | bodyLen uint32 LE | crc32(IEEE, body) uint32 LE | body
//
// body: uvarint len + Experiment | uvarint Shard | Seed uint64 LE |
// ConfigHash uint64 LE | uvarint StreamVersion | payload (to end).
func encode(m Meta, payload []byte) []byte {
	var body bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) { body.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	putUvarint(uint64(len(m.Experiment)))
	body.WriteString(m.Experiment)
	putUvarint(uint64(m.Shard))
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], m.Seed)
	body.Write(u64[:])
	binary.LittleEndian.PutUint64(u64[:], m.ConfigHash)
	body.Write(u64[:])
	putUvarint(uint64(m.StreamVersion))
	body.Write(payload)

	out := make([]byte, 0, 16+body.Len())
	out = append(out, magic[:]...)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(body.Len()))
	out = append(out, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(body.Bytes()))
	out = append(out, u32[:]...)
	return append(out, body.Bytes()...)
}

// errCorrupt is the generic verification failure; Get converts it to
// "missing" so the shard re-runs.
var errCorrupt = errors.New("checkpoint: corrupt file")

// decode verifies the frame and returns the stored identity and payload.
func decode(data []byte) (Meta, []byte, error) {
	var m Meta
	if len(data) < 16 || !bytes.Equal(data[:8], magic[:]) {
		return m, nil, errCorrupt
	}
	bodyLen := binary.LittleEndian.Uint32(data[8:12])
	sum := binary.LittleEndian.Uint32(data[12:16])
	body := data[16:]
	if uint32(len(body)) != bodyLen || crc32.ChecksumIEEE(body) != sum {
		return m, nil, errCorrupt
	}
	r := bytes.NewReader(body)
	nameLen, err := binary.ReadUvarint(r)
	if err != nil || nameLen > uint64(r.Len()) {
		return m, nil, errCorrupt
	}
	name := make([]byte, nameLen)
	if _, err := r.Read(name); err != nil {
		return m, nil, errCorrupt
	}
	m.Experiment = string(name)
	shard, err := binary.ReadUvarint(r)
	if err != nil {
		return m, nil, errCorrupt
	}
	m.Shard = int(shard)
	var u64 [8]byte
	if _, err := r.Read(u64[:]); err != nil || r.Len() < 8 {
		return m, nil, errCorrupt
	}
	m.Seed = binary.LittleEndian.Uint64(u64[:])
	if _, err := r.Read(u64[:]); err != nil {
		return m, nil, errCorrupt
	}
	m.ConfigHash = binary.LittleEndian.Uint64(u64[:])
	sv, err := binary.ReadUvarint(r)
	if err != nil {
		return m, nil, errCorrupt
	}
	m.StreamVersion = int(sv)
	payload := make([]byte, r.Len())
	if _, err := r.Read(payload); err != nil && r.Len() > 0 {
		return m, nil, errCorrupt
	}
	return m, payload, nil
}

// ScanState classifies one file Scan found in the store directory.
type ScanState int

const (
	// ScanComplete: the file's frame and CRC verify; Meta is trustworthy.
	ScanComplete ScanState = iota
	// ScanTorn: the file fails magic/framing/CRC verification — a torn or
	// corrupted write. Get would report it as missing; the coordinator
	// schedules the unit as incomplete.
	ScanTorn
)

func (s ScanState) String() string {
	if s == ScanComplete {
		return "complete"
	}
	return "torn"
}

// ScanEntry is one checkpoint file Scan found.
type ScanEntry struct {
	// Path is the file's full path.
	Path string
	// Meta is the stored identity; zero when State is ScanTorn.
	Meta Meta
	// State reports whether the file verifies.
	State ScanState
}

// Scan inventories every checkpoint file in the store directory, in sorted
// file-name order: complete entries carry their verified Meta, torn ones are
// reported as ScanTorn. It is the one shared answer to "which units does
// this directory actually hold" — the coordinator's dispatch loop, the
// crash-resume suite, and the join merge all consume it instead of globbing
// the directory by hand.
func (s *Store) Scan() ([]ScanEntry, error) {
	names, err := filepath.Glob(filepath.Join(s.dir, "*.ckpt"))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: scan %s: %w", s.dir, err)
	}
	sort.Strings(names)
	entries := make([]ScanEntry, 0, len(names))
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // raced a concurrent cleanup; the file is simply gone
			}
			return nil, fmt.Errorf("checkpoint: scan %s: %w", s.dir, err)
		}
		m, _, derr := decode(data)
		if derr != nil {
			entries = append(entries, ScanEntry{Path: name, State: ScanTorn})
			continue
		}
		entries = append(entries, ScanEntry{Path: name, Meta: m, State: ScanComplete})
	}
	return entries, nil
}

// Complete reports, for each wanted Meta, whether the store holds a
// verifying checkpoint for exactly that identity. It is Scan folded against
// a unit plan — what a coordinator asks before dispatching work.
func (s *Store) Complete(metas []Meta) ([]bool, error) {
	entries, err := s.Scan()
	if err != nil {
		return nil, err
	}
	have := make(map[Meta]bool, len(entries))
	for _, e := range entries {
		if e.State == ScanComplete {
			have[e.Meta] = true
		}
	}
	out := make([]bool, len(metas))
	for i, m := range metas {
		out[i] = have[m]
	}
	return out, nil
}

// Verify checks a raw checkpoint frame (a whole file's bytes) and returns
// the identity it binds. ok is false for torn or corrupt frames.
func Verify(data []byte) (m Meta, ok bool) {
	m, _, err := decode(data)
	return m, err == nil
}

// AdoptResult says what AdoptFrame did with a frame.
type AdoptResult int

const (
	// Adopted: the frame verified and was written under its canonical name.
	Adopted AdoptResult = iota
	// AlreadyPresent: the store already held byte-identical content for the
	// frame's identity; nothing was written.
	AlreadyPresent
	// RejectedTorn: the frame fails verification and was discarded.
	RejectedTorn
)

// AdoptFrame merges one raw checkpoint frame (read from another run's
// directory) into the store under its canonical name, by the same
// first-writer-wins rule as Put. Torn frames are rejected; a frame whose
// identity the store holds with different bytes fails with ErrPurity.
func (s *Store) AdoptFrame(data []byte) (Meta, AdoptResult, error) {
	m, ok := Verify(data)
	if !ok {
		return Meta{}, RejectedTorn, nil
	}
	res, err := s.publish(m, data)
	if err != nil {
		return m, res, fmt.Errorf("checkpoint: adopt %s shard %d: %w", m.Experiment, m.Shard, err)
	}
	return m, res, nil
}

// Hash fingerprints a configuration as FNV-1a over its canonical string
// parts. Callers list every input that determines a shard's bytes — budget
// knobs, root seed, shard count — so that a checkpoint can never be resumed
// into a run it was not computed for.
func Hash(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		_, _ = h.Write([]byte(p)) // hash.Hash.Write is documented never to fail
		_, _ = h.Write([]byte{0})
	}
	return h.Sum64()
}
