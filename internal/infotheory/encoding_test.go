package infotheory

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// roundTripP1P2 checks that r comes back exactly from little-endian
// encoding/binary, the encoding the experiments checkpoint codec writes
// for a Table III unit's fixed-size P1P2Result.
func roundTripP1P2(t *testing.T, r P1P2Result) {
	t.Helper()
	var b bytes.Buffer
	if err := binary.Write(&b, binary.LittleEndian, r); err != nil {
		t.Fatal(err)
	}
	var got P1P2Result
	if err := binary.Read(bytes.NewReader(b.Bytes()), binary.LittleEndian, &got); err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip: got %+v, want %+v", got, r)
	}
}

func TestP1P2ResultRoundTripExact(t *testing.T) {
	r := P1P2Result{CollisionPairs: 1234, NoCollisionPairs: 98765, P1Hits: 700, P2Hits: 43210}
	r.Merge(P1P2Result{}) // populate P1/P2 from the counts
	roundTripP1P2(t, r)
}

func TestP1P2ResultRoundTripZeroCounts(t *testing.T) {
	roundTripP1P2(t, P1P2Result{})
}

// TestP1P2ResultUnmarshalRejectsBadSize: the encoding is six 8-byte
// fields, and a payload shorter than that does not decode.
func TestP1P2ResultUnmarshalRejectsBadSize(t *testing.T) {
	size := binary.Size(P1P2Result{})
	if size != 48 {
		t.Fatalf("binary.Size(P1P2Result{}) = %d, want 48", size)
	}
	var r P1P2Result
	for _, n := range []int{0, 8, size - 1} {
		if err := binary.Read(bytes.NewReader(make([]byte, n)), binary.LittleEndian, &r); err == nil {
			t.Fatalf("len %d: want error", n)
		}
	}
}
