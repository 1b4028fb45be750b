package serve_test

import (
	"bytes"
	"net/http"
	"runtime"
	"testing"
)

// TestRestoreRefusesWhatTheLiveAPIRefuses: POST /restore answers 400 to
// a snapshot with default dimensions RegisterQuery would reject, to a
// stream DeclareStream would reject, and to a 185-byte body whose
// defaults make its query's synopsis 16 × 2^20, which it does not
// carry. Each restores nothing,
// allocates less than 1 MiB, and the node then restores a good snapshot.
func TestRestoreRefusesWhatTheLiveAPIRefuses(t *testing.T) {
	var good bytes.Buffer
	if err := newTestNode(t).eng.Snapshot(&good); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"defaults": `{"version":1,"defaults":{"Tables":0,"Buckets":0,"Seed":0}}`,
		"stream":   `{"version":1,"defaults":{"Tables":5,"Buckets":64,"Seed":3},"streams":{"F":{"domain":0,"count":-1}}}`,
		"uncarried": `{"version":1,"defaults":{"Tables":16,"Buckets":1048576,"Seed":1},"streams":{"F":{"domain":1024,"count":0}},` +
			`"queries":[{"name":"q","agg":0,"left":{"stream":"F"},"right":{"stream":"F"}}]}`,
	} {
		n := newEmptyNode(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code, out := n.post(t, "/restore", "application/json", []byte(body), "")
		runtime.ReadMemStats(&after)
		if code != http.StatusBadRequest {
			t.Errorf("%s: /restore answered %d %v, want 400", name, code, out)
		}
		if st := n.eng.Stats(); st.Streams != 0 || st.Queries != 0 {
			t.Errorf("%s: refused restore left %d streams, %d queries", name, st.Streams, st.Queries)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: refused restore allocated %d bytes, want < 1 MiB", name, got)
		}
		if code, out := n.post(t, "/restore", "application/json", good.Bytes(), ""); code != http.StatusOK {
			t.Errorf("%s: good snapshot refused after it: %d %v", name, code, out)
		}
	}
}
