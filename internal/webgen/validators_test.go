package webgen

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/detrand"
)

// TestETagMatchesQuotedHex holds appendETag to the expression it replaced,
// the quoted "%08x-%x" of the hash's low 32 bits and the size, over
// random pairs: hashes with leading zero digits, size 0, and sizes up
// to the int64 bounds.
func TestETagMatchesQuotedHex(t *testing.T) {
	want := func(h uint32, size int64) string {
		return strconv.Quote(fmt.Sprintf("%08x", h) + "-" + strconv.FormatInt(size, 16))
	}
	cases := [][2]int64{
		{0, 0}, {0xf, 0}, {0x0fffffff, 1}, {0x10000000, 500}, {0xffffffff, 1 << 40},
		{0x1234, -1}, {0xabcdef01, 1<<63 - 1}, {0x1, -1 << 63},
	}
	rng := detrand.New(11)
	for i := 0; i < 2000; i++ {
		h := int64(rng.Uint32())
		if i%3 == 0 {
			h >>= 4 * rng.Intn(8) // below 0x10000000: leading zeros
		}
		size := rng.Int63n(1 << uint(1+rng.Intn(62)))
		if i%10 == 0 {
			size = 0
		}
		cases = append(cases, [2]int64{h, size})
	}
	for _, c := range cases {
		h, size := uint32(c[0]), c[1]
		got := appendETag(nil, h, size)
		if w := want(h, size); string(got) != w || len(got) > maxETag {
			t.Fatalf("appendETag(%#x, %d) = %s, want %s (at most %d bytes)", h, size, got, w, maxETag)
		}
	}
	var buf [maxETag]byte
	if n := testing.AllocsPerRun(100, func() { _ = appendETag(buf[:0], 0x1234, 5000) }); n > 0 {
		t.Errorf("appendETag: %v allocs/op into a large enough buffer, want 0", n)
	}
}
