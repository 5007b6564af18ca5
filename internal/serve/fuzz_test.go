package serve

import (
	"bytes"
	"encoding/json"
	"maps"
	"slices"
	"testing"
)

// FuzzParseRequest checks the cache key's canonicalisation on every body
// that parses: encoding the parsed request and decoding it again keeps the
// key; reordering and re-spacing its fields, and spelling its scheduler by
// its alias, keep the key; and any non-whitespace byte after the object
// makes parsing fail. The seed corpus is testdata/fuzz/FuzzParseRequest.
func FuzzParseRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := parseRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		key := r.hash()
		enc, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("encode %+v: %v", r, err)
		}
		var fields map[string]any
		dec := json.NewDecoder(bytes.NewReader(enc))
		dec.UseNumber()
		if err := dec.Decode(&fields); err != nil {
			t.Fatalf("decode %s: %v", enc, err)
		}
		if s, ok := fields["scheduler"].(string); ok && schedAlias[s] != "" {
			fields["scheduler"] = schedAlias[s]
		}
		var respelled bytes.Buffer
		respell(&respelled, fields)
		for _, same := range [][]byte{enc, respelled.Bytes()} {
			v, err := parseRequest(bytes.NewReader(same))
			if err != nil || v.hash() != key {
				t.Fatalf("%s keys to %s, but %s keys to %s (%v)", body, key, same, v.hash(), err)
			}
		}
		for _, c := range []byte(`x0{}]"`) {
			if _, err := parseRequest(bytes.NewReader(append(slices.Clip(body), c))); err == nil {
				t.Fatalf("%s%c parsed: the data after the request object was ignored", body, c)
			}
		}
	})
}

// schedAlias maps each spelling of the one scheduler alias to the other.
var schedAlias = map[string]string{"default": "dependencies", "dependencies": "default"}

// respell writes v, a value decoded from JSON with UseNumber, back as JSON
// with every object's keys in reverse order and whitespace between tokens.
func respell(b *bytes.Buffer, v any) {
	switch v := v.(type) {
	case map[string]any:
		keys := slices.Sorted(maps.Keys(v))
		slices.Reverse(keys)
		b.WriteString("{ ")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(" ,\n\t")
			}
			respell(b, k)
			b.WriteString(" :\r\n")
			respell(b, v[k])
		}
		b.WriteString(" }")
	case []any:
		b.WriteString("[\t")
		for i, e := range v {
			if i > 0 {
				b.WriteString(" , ")
			}
			respell(b, e)
		}
		b.WriteString("\t]")
	default: // string, json.Number, bool or nil
		enc, _ := json.Marshal(v)
		b.Write(enc)
	}
}
