package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/resultstore"
	"repro/internal/tenant"
)

// testKeyring loads a two-tenant keyring: "alice" (plain) and "ops" (admin).
func testKeyring(t *testing.T) *tenant.Keyring {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys.json")
	body := `{"alice": {"token": "tok-alice"}, "ops": {"token": "tok-ops", "admin": true}}`
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	k, err := tenant.LoadKeyring(path)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// adminReq sends one request with an optional bearer token.
func adminReq(t *testing.T, ts *httptest.Server, method, path, token, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestAdminRefusedWhenAuthDisabled(t *testing.T) {
	_, ts := testServer(t) // no keyring
	resp := adminReq(t, ts, "POST", "/admin/store/verify", "", "")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("admin surface without -authkeys: status %d, want 403", resp.StatusCode)
	}
}

func TestAdminAuthRejections(t *testing.T) {
	_, ts := testServerCfg(t, serverConfig{CacheSize: 4, MaxN: 5_000_000, Keyring: testKeyring(t)})

	// Missing token: 401 with the RFC 6750 challenge.
	resp := adminReq(t, ts, "GET", "/admin/store/status", "", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("missing token: status %d, want 401", resp.StatusCode)
	}
	if got := resp.Header.Get("WWW-Authenticate"); !strings.Contains(got, "Bearer") {
		t.Errorf("missing token: WWW-Authenticate = %q, want a Bearer challenge", got)
	}

	// Invalid token: 401.
	if resp := adminReq(t, ts, "GET", "/admin/store/status", "tok-wrong", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("invalid token: status %d, want 401", resp.StatusCode)
	}

	// Valid token without the admin bit: 403.
	if resp := adminReq(t, ts, "GET", "/admin/store/status", "tok-alice", ""); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("non-admin token: status %d, want 403", resp.StatusCode)
	}

	// Valid admin token claiming someone else's tenant name: 403.
	req, _ := http.NewRequest("GET", ts.URL+"/admin/store/status", nil)
	req.Header.Set("Authorization", "Bearer tok-ops")
	req.Header.Set(tenantHeader, "alice")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusForbidden {
		t.Fatalf("contradicting X-WB-Tenant: status %d, want 403", resp2.StatusCode)
	}

	// The admin token itself: 200.
	if resp := adminReq(t, ts, "GET", "/admin/store/status", "tok-ops", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("admin token: status %d, want 200", resp.StatusCode)
	}
}

func TestRunRequiresTokenWhenAuthEnabled(t *testing.T) {
	_, ts := testServerCfg(t, serverConfig{CacheSize: 4, MaxN: 5_000_000, Keyring: testKeyring(t)})
	body := `{"bench":"li","n":100000,"depth":12,"retire_at":8,"hazard":"read-from-WB"}`

	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /run: status %d, want 401", resp.StatusCode)
	}

	if resp := adminReq(t, ts, "POST", "/run", "tok-alice", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated /run: status %d, want 200", resp.StatusCode)
	}
}

func TestAdminStoreEndpoints(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServerCfg(t, serverConfig{
		CacheSize: 4, MaxN: 5_000_000,
		StoreDir: filepath.Join(dir, "a") + "," + filepath.Join(dir, "b"),
		Keyring:  testKeyring(t),
	})

	// Populate the store with one real result.
	if resp := adminReq(t, ts, "POST", "/run", "tok-ops",
		`{"bench":"li","n":100000,"depth":12,"retire_at":8,"hazard":"read-from-WB"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("seeding run: status %d", resp.StatusCode)
	}

	// Verify: everything healthy.
	resp := adminReq(t, ts, "POST", "/admin/store/verify", "tok-ops", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: status %d", resp.StatusCode)
	}
	var ver struct {
		OK      int `json:"ok"`
		Corrupt int `json:"corrupt"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ver); err != nil {
		t.Fatal(err)
	}
	if ver.OK < 1 || ver.Corrupt != 0 {
		t.Fatalf("verify: ok=%d corrupt=%d, want >=1 healthy and 0 corrupt", ver.OK, ver.Corrupt)
	}

	// Status: replicated across two dirs, entries present.
	resp = adminReq(t, ts, "GET", "/admin/store/status", "tok-ops", "")
	var st storeStatusView
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Replicated || len(st.Replicas) != 2 {
		t.Fatalf("status: replicated=%v replicas=%d, want true/2", st.Replicated, len(st.Replicas))
	}
	if st.DiskEntries < 1 {
		t.Fatalf("status: disk_entries=%d, want >=1", st.DiskEntries)
	}

	// Evict a hash nobody has: well-formed, removes nothing.
	resp = adminReq(t, ts, "POST", "/admin/store/evict", "tok-ops", `{"config_hash":"feedface"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evict: status %d", resp.StatusCode)
	}
	var ev struct {
		Removed int `json:"removed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.Removed != 0 {
		t.Fatalf("evicting an unknown hash removed %d entries", ev.Removed)
	}

	// Malformed evict: missing the hash.
	if resp := adminReq(t, ts, "POST", "/admin/store/evict", "tok-ops", `{}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("evict without config_hash: status %d, want 400", resp.StatusCode)
	}

	// Prune to zero: every entry (one per replica counts once) goes.
	resp = adminReq(t, ts, "POST", "/admin/store/prune", "tok-ops", `{"max_entries":0}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prune: status %d", resp.StatusCode)
	}
	var pr struct {
		Removed int `json:"removed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Removed < 1 {
		t.Fatalf("prune to 0 removed %d entries, want >=1", pr.Removed)
	}
	if resp := adminReq(t, ts, "POST", "/admin/store/prune", "tok-ops", `{}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("prune without max_entries: status %d, want 400", resp.StatusCode)
	}
}

// The single-directory status document: no replica list and no scrub
// block (even after Verify ran a pass), and the quarantine count of the
// one directory.
func TestAdminStoreStatusSingleDir(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServerCfg(t, serverConfig{CacheSize: 4, MaxN: 5_000_000, StoreDir: dir, Keyring: testKeyring(t)})
	for _, depth := range []int{4, 12} {
		body := fmt.Sprintf(`{"bench":"li","n":100000,"depth":%d,"retire_at":2}`, depth)
		if resp := adminReq(t, ts, "POST", "/run", "tok-ops", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("seeding run: status %d", resp.StatusCode)
		}
	}
	// Garble the first record's envelope in place, keeping its header.
	logPath := filepath.Join(dir, resultstore.LogName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.IndexByte(data, '\n')
	copy(data[34:first], bytes.Repeat([]byte("x"), first-34))
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	resp := adminReq(t, ts, "POST", "/admin/store/verify", "tok-ops", "")
	var ver struct {
		OK      int `json:"ok"`
		Corrupt int `json:"corrupt"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ver); err != nil {
		t.Fatal(err)
	}
	if ver.OK != 1 || ver.Corrupt != 1 {
		t.Fatalf("verify: ok=%d corrupt=%d, want 1/1", ver.OK, ver.Corrupt)
	}

	resp = adminReq(t, ts, "GET", "/admin/store/status", "tok-ops", "")
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, ","), "disk_bytes,disk_entries,mem_entries,quarantined,replicated"; got != want {
		t.Errorf("status fields = %s, want %s", got, want)
	}
	for field, want := range map[string]string{"replicated": "false", "disk_entries": "1", "mem_entries": "2", "quarantined": "1"} {
		if got := string(doc[field]); got != want {
			t.Errorf("status %s = %s, want %s", field, got, want)
		}
	}
}

func TestAdminQueueStatus(t *testing.T) {
	_, ts := testServerCfg(t, serverConfig{CacheSize: 4, MaxN: 5_000_000, Keyring: testKeyring(t)})
	resp := adminReq(t, ts, "GET", "/admin/queue/status", "tok-ops", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("queue status: %d", resp.StatusCode)
	}
	var qs struct {
		Depth         int            `json:"depth"`
		DepthByTenant map[string]int `json:"depth_by_tenant"`
		JournalBytes  int64          `json:"journal_bytes"`
		AutoscaleHint int            `json:"autoscale_hint"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qs); err != nil {
		t.Fatal(err)
	}
	if qs.Depth != 0 || qs.AutoscaleHint != 0 {
		t.Fatalf("idle queue reports depth=%d hint=%d", qs.Depth, qs.AutoscaleHint)
	}
}

// threeTenantKeyring extends testKeyring with "bob", a second plain tenant,
// for cross-tenant authorization checks.
func threeTenantKeyring(t *testing.T) *tenant.Keyring {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys.json")
	body := `{"alice": {"token": "tok-alice"}, "bob": {"token": "tok-bob"}, "ops": {"token": "tok-ops", "admin": true}}`
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	k, err := tenant.LoadKeyring(path)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// With a keyring configured, every read surface that can return stored
// results or drive server work demands a token — run ids are
// content-addressed (derivable from the sweep that created them), so an
// open GET /run/{id} would leak any tenant's results to anyone who can
// phrase the request.  Only /healthz stays open (load balancers carry no
// credentials and readiness leaks nothing).
func TestReadSurfacesRequireTokenWhenAuthEnabled(t *testing.T) {
	_, ts := testServerCfg(t, serverConfig{CacheSize: 4, MaxN: 5_000_000, Keyring: testKeyring(t)})

	if resp := adminReq(t, ts, "GET", "/healthz", "", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz without a token: status %d, want 200 (readiness stays open)", resp.StatusCode)
	}
	for _, path := range []string{"/experiments", "/metrics", "/debug/pprof/", "/debug/vars"} {
		if resp := adminReq(t, ts, "GET", path, "", ""); resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("GET %s without a token: status %d, want 401", path, resp.StatusCode)
		}
		if resp := adminReq(t, ts, "GET", path, "tok-wrong", ""); resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("GET %s with an invalid token: status %d, want 401", path, resp.StatusCode)
		}
		if resp := adminReq(t, ts, "GET", path, "tok-alice", ""); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s with a valid non-admin token: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// Run documents are tenant-scoped: the owning tenant and admins read them,
// other tenants get 403, anonymous gets 401 — on both the document and its
// SSE feed.
func TestRunDocumentsAreTenantScoped(t *testing.T) {
	_, ts := testServerCfg(t, serverConfig{CacheSize: 4, MaxN: 5_000_000, Keyring: threeTenantKeyring(t)})

	resp := adminReq(t, ts, "POST", "/run", "tok-alice", `{"bench":"li","n":100000,"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST /run: status %d, want 202", resp.StatusCode)
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/run/" + doc.ID, "/run/" + doc.ID + "/events"} {
		if resp := adminReq(t, ts, "GET", path, "", ""); resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("GET %s without a token: status %d, want 401", path, resp.StatusCode)
		}
		if resp := adminReq(t, ts, "GET", path, "tok-bob", ""); resp.StatusCode != http.StatusForbidden {
			t.Errorf("GET %s as another tenant: status %d, want 403", path, resp.StatusCode)
		}
	}
	if resp := adminReq(t, ts, "GET", "/run/"+doc.ID, "tok-alice", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("owner reading their run: status %d, want 200", resp.StatusCode)
	}
	if resp := adminReq(t, ts, "GET", "/run/"+doc.ID, "tok-ops", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("admin reading a tenant run: status %d, want 200", resp.StatusCode)
	}
}

// TestAdminEndpointsAllRequireAuth sweeps every admin route with no token:
// each must answer 401, not fall through to its handler.
func TestAdminEndpointsAllRequireAuth(t *testing.T) {
	_, ts := testServerCfg(t, serverConfig{CacheSize: 4, MaxN: 5_000_000, Keyring: testKeyring(t)})
	routes := []struct{ method, path string }{
		{"POST", "/admin/store/verify"},
		{"POST", "/admin/store/evict"},
		{"POST", "/admin/store/prune"},
		{"GET", "/admin/store/status"},
		{"GET", "/admin/queue/status"},
	}
	for _, rt := range routes {
		resp := adminReq(t, ts, rt.method, rt.path, "", "")
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s %s without a token: status %d, want 401", rt.method, rt.path, resp.StatusCode)
		}
	}
}
