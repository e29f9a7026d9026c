package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"snaple/internal/engine"
)

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
	}
	return resp
}

func TestInfo(t *testing.T) {
	g := testGraph(t, 150, 3)
	s, ts := newTestServer(t, Options{Graph: g, Config: testConfig(t, 7)})

	var info InfoResponse
	if resp := getJSON(t, ts.URL+"/v1/info", &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if info.Engine != "local" || info.Vertices != g.NumVertices() || info.Edges != g.NumEdges() ||
		info.MaxK != 7 || info.Score != "linearSum" {
		t.Errorf("info = %+v", info)
	}
	if want := fmt.Sprintf("%016x", configFingerprint(s.cfg)); info.ConfigFingerprint != want {
		t.Errorf("config fingerprint %q, want %q", info.ConfigFingerprint, want)
	}
	if info.Fleet != nil {
		t.Errorf("local backend reported a fleet: %+v", info.Fleet)
	}
	checkEngineNamed(t, ts.URL, "local")
}

// checkEngineNamed pins that /statsz and /healthz name the engine mode
// exactly as /v1/info does.
func checkEngineNamed(t *testing.T, url, want string) {
	t.Helper()
	var snap Snapshot
	if resp := getJSON(t, url+"/statsz", &snap); resp.StatusCode != http.StatusOK || snap.Engine != want {
		t.Errorf("/statsz: status %d, engine %q, want %q", resp.StatusCode, snap.Engine, want)
	}
	var h HealthResponse
	if resp := getJSON(t, url+"/healthz", &h); resp.StatusCode != http.StatusOK || h.Engine != want {
		t.Errorf("/healthz: status %d, engine %q, want %q", resp.StatusCode, h.Engine, want)
	}
}

// TestInfoFleet checks the topology block two front-ends sharing a fleet
// would compare: shard/replica counts and the pack fingerprint.
func TestInfoFleet(t *testing.T) {
	g := testGraph(t, 150, 3)
	f, err := engine.OpenFleet(g, engine.FleetOptions{InProc: 3, Replicas: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	_, ts := newTestServer(t, Options{Graph: g, Backend: f, Config: testConfig(t, 5)})

	var info InfoResponse
	if resp := getJSON(t, ts.URL+"/v1/info", &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if info.Engine != "fleet" || info.Fleet == nil {
		t.Fatalf("info = %+v", info)
	}
	fi := f.FleetInfo()
	want := FleetInfoJSON{Shards: 3, Replicas: 2, Workers: 6, Fingerprint: fmt.Sprintf("%016x", fi.Fingerprint)}
	if *info.Fleet != want {
		t.Errorf("fleet block = %+v, want %+v", *info.Fleet, want)
	}
	checkEngineNamed(t, ts.URL, "fleet")
}

// TestErrorShape pins the uniform error contract: every endpoint, every
// failure mode, one JSON shape — {"error":{"code","message"}} — with a
// stable code vocabulary.
func TestErrorShape(t *testing.T) {
	g := testGraph(t, 100, 3)
	_, ts := newTestServer(t, Options{Graph: g, Config: testConfig(t, 5)})

	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"predict-get", http.MethodGet, "/v1/predict", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"predict-bad-json", http.MethodPost, "/v1/predict", "{", http.StatusBadRequest, "bad_request"},
		{"predict-empty-ids", http.MethodPost, "/v1/predict", `{"ids":[]}`, http.StatusBadRequest, "bad_request"},
		{"predict-bad-vertex", http.MethodPost, "/v1/predict", `{"ids":[99999]}`, http.StatusBadRequest, "bad_request"},
		{"predict-bad-k", http.MethodPost, "/v1/predict", `{"ids":[1],"k":50}`, http.StatusBadRequest, "bad_request"},
		{"info-post", http.MethodPost, "/v1/info", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"healthz-post", http.MethodPost, "/healthz", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"statsz-post", http.MethodPost, "/statsz", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"unknown-path", http.MethodGet, "/v2/nothing", "", http.StatusNotFound, "not_found"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, c.status, raw)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
			var er errorResponse
			if err := json.Unmarshal(raw, &er); err != nil {
				t.Fatalf("error body is not the uniform shape: %s", raw)
			}
			if er.Error.Code != c.code || er.Error.Message == "" {
				t.Errorf("error = %+v, want code %q with a message", er.Error, c.code)
			}
		})
	}
}
