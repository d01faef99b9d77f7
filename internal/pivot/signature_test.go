package pivot

import (
	"testing"
)

func TestSignatureRankInsensitive(t *testing.T) {
	rs := Signature{6, 4, 1, 7, 2, 5, 3}
	ri := rs.RankInsensitive()
	want := Signature{1, 2, 3, 4, 5, 6, 7}
	if !ri.Equal(want) {
		t.Fatalf("rank-insensitive = %v, want %v", ri, want)
	}
	// Receiver untouched.
	if !rs.Equal(Signature{6, 4, 1, 7, 2, 5, 3}) {
		t.Fatalf("RankInsensitive mutated receiver: %v", rs)
	}
}

// Key spells a signature the way fmt's %d joined by commas always has:
// centroid selection breaks frequency ties by comparing keys, so a new
// spelling would change which centroids a build selects.
func TestSignatureKeyGolden(t *testing.T) {
	cases := []struct {
		sig  Signature
		want string
	}{
		{Signature{}, ""},
		{Signature{0}, "0"},
		{Signature{6, 4, 1}, "6,4,1"},
		{Signature{10, 200, 5}, "10,200,5"},
		{Signature{9, 10, 99, 100, 199}, "9,10,99,100,199"},
		{Signature{-3, 7}, "-3,7"},
		{Signature{1 << 40}, "1099511627776"},
		{Signature{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 1000, 1001, 1002, 123456},
			"0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,1000,1001,1002,123456"},
	}
	for _, c := range cases {
		if got := c.sig.Key(); got != c.want {
			t.Errorf("Key(%v) = %q, want %q", []int(c.sig), got, c.want)
		}
	}
}

func TestSignatureString(t *testing.T) {
	if got := (Signature{6, 4, 1}).String(); got != "<6,4,1>" {
		t.Fatalf("String = %q, want <6,4,1>", got)
	}
	if got := (Signature{}).String(); got != "<>" {
		t.Fatalf("empty String = %q, want <>", got)
	}
}

func TestSignatureContains(t *testing.T) {
	sig := Signature{4, 9, 2}
	if !sig.Contains(9) || sig.Contains(5) {
		t.Fatalf("Contains misbehaving on %v", sig)
	}
}

func TestSignatureEqual(t *testing.T) {
	a := Signature{1, 2}
	if a.Equal(Signature{1}) {
		t.Fatal("signatures of different lengths reported equal")
	}
	if a.Equal(Signature{2, 1}) {
		t.Fatal("order must matter for Equal")
	}
	if !a.Equal(Signature{1, 2}) {
		t.Fatal("identical signatures reported unequal")
	}
}

func TestSignatureClone(t *testing.T) {
	a := Signature{1, 2, 3}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone shares backing storage with original")
	}
}
