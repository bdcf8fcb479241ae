package wire

import (
	"strings"
	"testing"
)

func TestDecode(t *testing.T) {
	type body struct {
		Deck string `json:"deck"`
		PEs  int    `json:"pes"`
	}
	var b body
	if err := Decode(strings.NewReader(`{"deck":"small","pes":4}`+"\n"), &b); err != nil || b.Deck != "small" || b.PEs != 4 {
		t.Fatalf("valid body: %+v, %v", b, err)
	}
	for name, src := range map[string]string{
		"unknown field": `{"deck":"small","pes":4,"bogus":1}`,
		"trailing data": `{"deck":"small"} {"pes":4}`,
		"malformed":     `{"deck":`,
		"empty":         ``,
	} {
		if err := Decode(strings.NewReader(src), &body{}); err == nil {
			t.Errorf("%s: %q accepted", name, src)
		}
	}
}
