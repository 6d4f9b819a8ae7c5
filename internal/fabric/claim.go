package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"randfill/internal/atomicio"
	"randfill/internal/checkpoint"
)

// claimMagic opens every claim file; the trailing byte is the format
// version. The frame mirrors the checkpoint store's:
//
//	magic[8] | bodyLen uint32 LE | crc32(IEEE, body) uint32 LE | body
//
// body: uvarint len + Owner | Deadline (UnixNano) u64 LE | unit identity
// (uvarint len + Experiment | uvarint Shard | Seed u64 | ConfigHash u64 |
// uvarint StreamVersion).
//
// A claim that fails magic, framing, or CRC verification reads as absent —
// the same torn-file discipline as checkpoints: any worker may take the
// unit over and run it again. Corruption costs work, never correctness.
var claimMagic = [8]byte{'R', 'F', 'C', 'L', 'A', 'I', 'M', '1'}

// Claim is the decoded content of a claim-framed file: a worker's claim on
// a unit, the coordinator's lease on the fabric directory (zero Unit), or
// an aborted marker (zero Deadline).
type Claim struct {
	// Owner is the holding process's id (worker id or coordinator id).
	Owner string
	// Deadline is the wall-clock instant (UnixNano) the claim expires if
	// not renewed.
	Deadline int64
	// Unit identifies the claimed work unit.
	Unit checkpoint.Meta
}

// Expired reports whether the claim's deadline has passed at now.
func (c Claim) Expired(now time.Time) bool { return now.UnixNano() > c.Deadline }

// encodeClaim frames a claim for disk.
func encodeClaim(c Claim) []byte {
	var body bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) { body.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	putU64 := func(v uint64) {
		var u [8]byte
		binary.LittleEndian.PutUint64(u[:], v)
		body.Write(u[:])
	}
	putUvarint(uint64(len(c.Owner)))
	body.WriteString(c.Owner)
	putU64(uint64(c.Deadline))
	putUvarint(uint64(len(c.Unit.Experiment)))
	body.WriteString(c.Unit.Experiment)
	putUvarint(uint64(c.Unit.Shard))
	putU64(c.Unit.Seed)
	putU64(c.Unit.ConfigHash)
	putUvarint(uint64(c.Unit.StreamVersion))

	out := make([]byte, 0, 16+body.Len())
	out = append(out, claimMagic[:]...)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(body.Len()))
	out = append(out, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(body.Bytes()))
	out = append(out, u32[:]...)
	return append(out, body.Bytes()...)
}

// errTornClaim is the generic verification failure; readers convert it to
// "absent".
var errTornClaim = errors.New("fabric: torn claim file")

// decodeClaim verifies the frame and returns the claim.
func decodeClaim(data []byte) (Claim, error) {
	var c Claim
	if len(data) < 16 || !bytes.Equal(data[:8], claimMagic[:]) {
		return c, errTornClaim
	}
	bodyLen := binary.LittleEndian.Uint32(data[8:12])
	sum := binary.LittleEndian.Uint32(data[12:16])
	body := data[16:]
	if uint32(len(body)) != bodyLen || crc32.ChecksumIEEE(body) != sum {
		return c, errTornClaim
	}
	r := bytes.NewReader(body)
	readStr := func() (string, error) {
		n, err := binary.ReadUvarint(r)
		if err != nil || n > uint64(r.Len()) {
			return "", errTornClaim
		}
		b := make([]byte, n)
		if _, err := r.Read(b); err != nil {
			return "", errTornClaim
		}
		return string(b), nil
	}
	readU64 := func() (uint64, error) {
		var u [8]byte
		if _, err := r.Read(u[:]); err != nil || r.Len() < 0 {
			return 0, errTornClaim
		}
		return binary.LittleEndian.Uint64(u[:]), nil
	}
	var err error
	if c.Owner, err = readStr(); err != nil {
		return c, err
	}
	dl, err := readU64()
	if err != nil {
		return c, err
	}
	c.Deadline = int64(dl)
	if c.Unit.Experiment, err = readStr(); err != nil {
		return c, err
	}
	shard, err := binary.ReadUvarint(r)
	if err != nil {
		return c, errTornClaim
	}
	c.Unit.Shard = int(shard)
	if c.Unit.Seed, err = readU64(); err != nil {
		return c, err
	}
	if c.Unit.ConfigHash, err = readU64(); err != nil {
		return c, err
	}
	sv, err := binary.ReadUvarint(r)
	if err != nil {
		return c, errTornClaim
	}
	c.Unit.StreamVersion = int(sv)
	return c, nil
}

// readClaim loads and verifies path. ok is false when the file does not
// exist or is torn/corrupt — in both cases the claim is treated as absent.
// The error return is reserved for real I/O failures.
func readClaim(path string) (Claim, bool, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return Claim{}, false, nil
	}
	if err != nil {
		return Claim{}, false, fmt.Errorf("fabric: read claim %s: %w", path, err)
	}
	c, derr := decodeClaim(data)
	if derr != nil {
		return Claim{}, false, nil // torn claim reads as absent
	}
	return c, true, nil
}

// writeClaim atomically publishes a claim at path. With exclusive set it
// never replaces an existing file (the error then satisfies
// errors.Is(err, fs.ErrExist)), so of several workers racing to claim an
// unclaimed unit exactly one wins. afterWrite, when non-nil, runs once the
// file is visible — the torn-lease fault injects damage there, exactly like
// the checkpoint AfterPut hook.
func writeClaim(path string, c Claim, exclusive bool, afterWrite func(path string)) error {
	write := atomicio.WriteFile
	if exclusive {
		write = atomicio.WriteNew
	}
	if err := write(path, encodeClaim(c), 0o644); err != nil {
		return fmt.Errorf("fabric: write claim: %w", err)
	}
	if afterWrite != nil {
		afterWrite(path)
	}
	return nil
}
