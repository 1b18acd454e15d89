package main

import (
	"strings"
	"testing"
)

func TestParseBatch(t *testing.T) {
	const ok = `{"index":1,"status":200,"result":{"a":1}}
{"index":0,"status":200,"result":{"a":0}}
{"done":true,"items":2,"completed":2,"truncated":false}
`
	res, err := parseBatch([]byte(ok), 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(res[0]) != `{"a":0}` || string(res[1]) != `{"a":1}` {
		t.Fatalf("results out of order: %s %s", res[0], res[1])
	}
	for _, tc := range []struct{ name, body, want string }{
		{"non-200 item", `{"index":0,"status":422,"error":"x"}` + "\n" + `{"done":true,"items":1,"completed":1}` + "\n", "answered 422"},
		{"no trailer", `{"index":0,"status":200,"result":{}}` + "\n", "0 trailers"},
		{"truncated", `{"index":0,"status":200,"result":{}}` + "\n" + `{"done":true,"items":1,"completed":1,"truncated":true,"reason":"deadline exceeded"}` + "\n", "truncated=true"},
		{"incomplete", `{"done":true,"items":1,"completed":0}` + "\n", "completed=0"},
		{"duplicate", `{"index":0,"status":200,"result":{}}` + "\n" + `{"index":0,"status":200,"result":{}}` + "\n", "twice"},
		{"line after trailer", `{"index":0,"status":200,"result":{}}` + "\n" + `{"done":true,"items":1,"completed":1}` + "\n" + `{"done":true,"items":1,"completed":1}` + "\n", "after the trailer"},
		{"missing newline", `{"done":true,"items":1,"completed":1}`, "newline"},
	} {
		if _, err := parseBatch([]byte(tc.body), 1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}
