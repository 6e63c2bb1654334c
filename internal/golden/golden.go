// Package golden pins command outputs by SHA-256 digest. Several
// commands' tests share one JSON file of artifact name → digest; each
// test owns the names it produces.
package golden

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"maps"
	"os"
	"sort"
	"testing"
)

// Check fails t for each artifact of got whose digest differs from the
// one stored in path. With update it stores got's digests in path
// instead, keeping the other entries.
func Check(t testing.TB, path string, got map[string][]byte, update bool) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	sums := digests(got)
	if update {
		maps.Copy(want, sums)
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, name := range mismatches(want, sums) {
		t.Errorf("%s: sha256 %s, golden %s (%d bytes; rerun with -update if the change is intended)",
			name, sums[name], want[name], len(got[name]))
	}
}

// DetectsOneByteChange flips one byte in each artifact of got in turn
// and fails t unless the comparison flags that artifact alone. got is
// restored before it returns.
func DetectsOneByteChange(t testing.TB, got map[string][]byte) {
	t.Helper()
	want := digests(got)
	for name, out := range got {
		planted := maps.Clone(want)
		out[len(out)/2] ^= 1
		planted[name] = digest(out)
		out[len(out)/2] ^= 1
		if bad := mismatches(want, planted); len(bad) != 1 || bad[0] != name {
			t.Errorf("one-byte change to %s: mismatches %v", name, bad)
		}
	}
}

// mismatches returns, in name order, the artifacts of got whose digest
// differs from want's, a name missing from want included.
func mismatches(want, got map[string]string) []string {
	var bad []string
	for name, sum := range got {
		if want[name] != sum {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

func digests(arts map[string][]byte) map[string]string {
	sums := make(map[string]string, len(arts))
	for name, b := range arts {
		sums[name] = digest(b)
	}
	return sums
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
