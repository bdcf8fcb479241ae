// Package wire holds the request-body rule `krak serve` and `krak
// gateway` share. The gateway decides whether a body gets a canonical
// cache key and a degraded answer by decoding it, so it must accept
// exactly the bodies a replica accepts; one decoder for both keeps the
// two from drifting apart.
package wire

import (
	"encoding/json"
	"fmt"
	"io"
)

// Decode reads one JSON request body into v strictly: unknown fields
// and trailing data after the JSON value are errors.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("decoding request: trailing data after JSON body")
	}
	return nil
}
