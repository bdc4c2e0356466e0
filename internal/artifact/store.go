package artifact

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"seqavf/internal/core"
	"seqavf/internal/fleet"
	"seqavf/internal/httpx"
	"seqavf/internal/obs"
	"seqavf/internal/sweep"
)

// ext names artifact files; the content address (design fingerprint) is
// the file name.
const ext = ".sart"

// headExt names head-pointer files: one per design name, holding the
// fingerprint of that design's most recently Put artifact. Content
// addressing alone cannot answer "what did this design look like before
// the edit?" — the edited design hashes to a fingerprint no artifact
// carries — so Put leaves a name-keyed breadcrumb for Prior to follow.
const headExt = ".head"

// tmpMaxAge gates the stale-staging sweep in Open: a put-*.tmp file
// older than this was stranded by a crash between CreateTemp and
// Rename (a live Put holds its tmp for milliseconds) and is removed so
// dead staging bytes stop eating the MaxBytes budget's disk. Younger
// tmp files may belong to a concurrent writer and are left alone.
const tmpMaxAge = time.Hour

// maxRemoteArtifactBytes caps how much of a peer's response the remote
// tier will buffer: the codec's own section caps mean a genuine
// artifact decodes from far less, so anything bigger is a broken or
// hostile peer.
const maxRemoteArtifactBytes = 1 << 30

// Remote configures the store's pull-through tier: on a local miss the
// store fetches the artifact from the fleet peer that owns its
// fingerprint (rendezvous order over Peers), verifies the bytes with
// the same CRC-checked Decode every local read gets, and installs the
// artifact atomically so the next read is local. Replication is safe
// by construction — artifacts are immutable, versioned, checksummed,
// and keyed by content.
type Remote struct {
	// Peers are the other replicas' base URLs (this process excluded),
	// each serving GET /v1/artifacts/{fingerprint}.
	Peers []string
	// Client performs the fetches. nil uses a client with a 5s timeout.
	Client *http.Client
}

// Options configure a Store. The zero value is usable: unbounded disk,
// no remote tier, no telemetry.
type Options struct {
	// MaxBytes bounds the store's total size — artifacts plus head
	// pointers, the same set eviction accounts. When a Put pushes the
	// store past the bound, least-recently-used artifacts (by access
	// time; Get touches) are evicted until it fits, keeping at least the
	// entry just written. 0 means unbounded.
	MaxBytes int64
	// Remote, when non-nil, enables the pull-through tier: local misses
	// consult the owning peers before reporting a miss.
	Remote *Remote
	// Obs receives store telemetry: hit/miss/put/eviction counters,
	// remote-tier counters, and decode-failure counts. nil disables
	// instrumentation.
	Obs *obs.Registry
}

// Store is an on-disk content-addressed artifact cache: one file per
// design fingerprint, written atomically (temp file + rename), decoded
// with full integrity checking on every Get. Multiple processes may
// share a directory — rename is atomic within a filesystem, and readers
// only ever observe complete files. The in-process mutex serializes
// eviction bookkeeping.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	remote *Remote // guarded by mu; set at Open or via SetRemote
}

// Open returns a Store rooted at dir, creating the directory if needed.
// Staging files stranded by a crashed writer (put-*.tmp older than an
// hour) are swept here so they cannot silently eat the disk budget
// forever; a concurrent writer's fresh tmp is age-gated out of the
// sweep.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("artifact: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: creating store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, remote: opts.Remote}
	s.sweepStaleTmp()
	return s, nil
}

// SetRemote installs (or clears) the pull-through tier after Open —
// the late-binding hook for callers that learn their peer addresses
// only once listeners are up.
func (s *Store) SetRemote(rem *Remote) {
	s.mu.Lock()
	s.remote = rem
	s.mu.Unlock()
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(fp uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%016x%s", fp, ext))
}

// headPath names the head-pointer file for a design name. The name is
// hashed rather than embedded: design names are arbitrary strings, file
// names are not. Prior re-checks the decoded artifact's design name, so
// a hash collision degrades to a miss, never to wrong state.
func (s *Store) headPath(designName string) string {
	h := fnv.New64a()
	h.Write([]byte(designName))
	return filepath.Join(s.dir, fmt.Sprintf("%016x%s", h.Sum64(), headExt))
}

// parseHead validates a head-pointer payload: exactly one 16-hex-digit
// token, nothing else. Sscanf-style parsing accepted trailing garbage —
// a torn or concatenated write would quietly resolve to a wrong-but-
// well-formed fingerprint — so anything but the canonical form Put
// writes is malformed.
func parseHead(b []byte) (uint64, bool) {
	if len(b) != 16 {
		return 0, false
	}
	for _, c := range b {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return 0, false
		}
	}
	fp, err := strconv.ParseUint(string(b), 16, 64)
	return fp, err == nil
}

// sweepStaleTmp removes staging files stranded by crashed writers.
func (s *Store) sweepStaleTmp() {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-tmpMaxAge)
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, "put-") || !strings.HasSuffix(name, ".tmp") {
			continue
		}
		info, err := de.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(s.dir, name)) == nil {
			s.opts.Obs.Counter("artifact.tmp_sweeps").Inc()
		}
	}
}

// Get loads and decodes the artifact for a's fingerprint. A clean miss
// returns (nil, nil, nil); a present-but-unreadable artifact (version
// skew, corruption) returns the decode error so callers can report it
// before regenerating — the next Put overwrites the bad entry.
func (s *Store) Get(a *core.Analyzer) (*core.Result, *sweep.Plan, error) {
	return s.GetContext(context.Background(), a)
}

// GetContext is Get with request-scoped tracing: the "artifact.restore"
// span nests under ctx's current span, its "outcome" attribute
// distinguishes warm-start hits from misses, remote-tier hits, and
// decode errors, and successful restores feed the
// artifact.restore_seconds latency histogram — the warm-start half of
// the warm-vs-cold budget. With a Remote configured, a local miss
// consults the owning peers before reporting a miss.
func (s *Store) GetContext(ctx context.Context, a *core.Analyzer) (*core.Result, *sweep.Plan, error) {
	fp := a.Fingerprint()
	sp := s.opts.Obs.StartSpanContext(ctx, "artifact.restore")
	defer sp.End()
	sp.SetAttr("fingerprint", fmt.Sprintf("%016x", fp))
	start := time.Now()
	path := s.path(fp)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		s.opts.Obs.Counter("artifact.store_misses").Inc()
		if res, plan, n := s.fetchRemote(ctx, a, fp); res != nil {
			s.opts.Obs.FixedHistogram("artifact.restore_seconds", obs.LatencyBuckets).
				Observe(time.Since(start).Seconds())
			sp.SetAttr("outcome", "remote")
			sp.SetAttr("bytes", n)
			return res, plan, nil
		}
		sp.SetAttr("outcome", "miss")
		return nil, nil, nil
	}
	if err != nil {
		s.opts.Obs.Counter("artifact.store_errors").Inc()
		sp.SetAttr("outcome", "error")
		return nil, nil, fmt.Errorf("artifact: reading %s: %w", path, err)
	}
	res, plan, err := Decode(data, a)
	if err != nil {
		s.opts.Obs.Counter("artifact.decode_errors").Inc()
		sp.SetAttr("outcome", "error")
		return nil, nil, fmt.Errorf("artifact: %s: %w", path, err)
	}
	// Touch for LRU: eviction orders by mtime, and a freshly served
	// artifact is the one to keep. Best-effort — a racing eviction or a
	// read-only store must not fail the hit.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	s.opts.Obs.Counter("artifact.store_hits").Inc()
	s.opts.Obs.FixedHistogram("artifact.restore_seconds", obs.LatencyBuckets).
		Observe(time.Since(start).Seconds())
	sp.SetAttr("outcome", "hit")
	sp.SetAttr("bytes", len(data))
	return res, plan, nil
}

// fetchRemote is the pull-through tier: peers are tried in rendezvous
// order for the fingerprint (the first choice is the peer a
// consistently-hashed fleet would have routed this design's solve to),
// fetched bytes are verified with the full CRC-checked Decode before
// anything is trusted, and a verified artifact is installed locally so
// the warm start survives the next restart too. Every failure mode is
// soft: a dead peer, a 404, or bytes that fail verification move on to
// the next peer and at worst degrade to a clean local miss.
func (s *Store) fetchRemote(ctx context.Context, a *core.Analyzer, fp uint64) (*core.Result, *sweep.Plan, int) {
	s.mu.Lock()
	rem := s.remote
	s.mu.Unlock()
	if rem == nil || len(rem.Peers) == 0 {
		return nil, nil, 0
	}
	client := rem.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	key := fmt.Sprintf("%016x", fp)
	for _, peer := range fleet.Rank(key, rem.Peers) {
		req, err := httpx.NewRequest(ctx, http.MethodGet, peer+"/v1/artifacts/"+key, "", nil)
		if err != nil {
			s.opts.Obs.Counter("artifact.remote_errors").Inc()
			continue
		}
		resp, err := client.Do(req)
		if err != nil {
			s.opts.Obs.Counter("artifact.remote_errors").Inc()
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				s.opts.Obs.Counter("artifact.remote_errors").Inc()
			}
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxRemoteArtifactBytes))
		resp.Body.Close()
		if err != nil {
			s.opts.Obs.Counter("artifact.remote_errors").Inc()
			continue
		}
		// Verify before trusting: the peer's bytes go through the same
		// fingerprint + CRC gates a local read gets, so a stale, torn, or
		// hostile payload is indistinguishable from a miss, never state.
		res, plan, err := Decode(data, a)
		if err != nil {
			s.opts.Obs.Counter("artifact.remote_errors").Inc()
			continue
		}
		// Install locally (atomic temp + rename) so the pulled artifact
		// survives this process and serves the next peer's pull. Failure
		// to persist must not fail the hit.
		s.mu.Lock()
		if err := s.installLocked(data, fp, res.Analyzer.G.Design.Name); err != nil {
			s.opts.Obs.Counter("artifact.store_errors").Inc()
		}
		s.mu.Unlock()
		s.opts.Obs.Counter("artifact.remote_hits").Inc()
		return res, plan, len(data)
	}
	s.opts.Obs.Counter("artifact.remote_misses").Inc()
	return nil, nil, 0
}

// Raw returns the stored artifact bytes for a fingerprint without
// decoding — the serving side of the remote tier (the peer verifies).
// The read counts as an access for LRU purposes. Missing entries
// return an error satisfying errors.Is(err, fs.ErrNotExist).
func (s *Store) Raw(fp uint64) ([]byte, error) {
	path := s.path(fp)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return data, nil
}

// Put encodes res (compiling its plan when plan is nil) and installs it
// under the design fingerprint via an atomic write-rename, then evicts
// least-recently-used entries beyond MaxBytes. An existing entry for
// the same fingerprint is replaced.
func (s *Store) Put(res *core.Result, plan *sweep.Plan) error {
	data, err := Encode(res, plan)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.installLocked(data, res.Analyzer.Fingerprint(), res.Analyzer.G.Design.Name)
}

// installLocked writes encoded artifact bytes under fp (atomic temp +
// rename), leaves the name-keyed head pointer, and evicts beyond
// MaxBytes. Requires s.mu held. Shared by Put and the remote tier's
// pull-through install.
func (s *Store) installLocked(data []byte, fp uint64, designName string) error {
	path := s.path(fp)
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("artifact: staging write: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Chmod(tmp.Name(), 0o644)
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: writing %s: %w", path, werr)
	}
	s.opts.Obs.Counter("artifact.store_puts").Inc()
	// Leave the name-keyed head pointer for incremental re-solves — also
	// temp + rename, so a racing Prior (possibly in another process
	// sharing the directory) never reads a torn pointer. Best-effort: the
	// pointer is an optimization, and a stale or missing one only costs a
	// cold solve.
	if werr := s.writeHeadAtomic(designName, fp); werr != nil {
		s.opts.Obs.Counter("artifact.store_errors").Inc()
	}
	if s.opts.MaxBytes > 0 {
		s.evictLocked(filepath.Base(path))
	}
	return nil
}

// writeHeadAtomic installs the head pointer for designName via the same
// temp + rename protocol artifacts use.
func (s *Store) writeHeadAtomic(designName string, fp uint64) error {
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return err
	}
	_, werr := fmt.Fprintf(tmp, "%016x", fp)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Chmod(tmp.Name(), 0o644)
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), s.headPath(designName))
	}
	if werr != nil {
		os.Remove(tmp.Name())
	}
	return werr
}

// Prior loads the most recently Put artifact for a design *name* —
// regardless of fingerprint — and distills it into the seed state
// core.ResolveIncremental consumes. This is the edited-design path: the
// edit changed the fingerprint, so GetContext misses, but the prior
// artifact still describes every FUB the edit left alone. A clean miss
// (no head pointer, or it names an evicted artifact) returns (nil, nil);
// unreadable bytes return the decode error so callers can report before
// regenerating.
func (s *Store) Prior(ctx context.Context, designName string) (*core.PriorState, error) {
	sp := s.opts.Obs.StartSpanContext(ctx, "artifact.prior")
	defer sp.End()
	sp.SetAttr("design", designName)
	headData, err := os.ReadFile(s.headPath(designName))
	if errors.Is(err, fs.ErrNotExist) {
		sp.SetAttr("outcome", "miss")
		return nil, nil
	}
	if err != nil {
		sp.SetAttr("outcome", "error")
		return nil, fmt.Errorf("artifact: reading head pointer for %q: %w", designName, err)
	}
	fp, ok := parseHead(headData)
	if !ok {
		sp.SetAttr("outcome", "error")
		return nil, fmt.Errorf("artifact: head pointer for %q is malformed", designName)
	}
	path := s.path(fp)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		sp.SetAttr("outcome", "miss")
		return nil, nil
	}
	if err != nil {
		sp.SetAttr("outcome", "error")
		return nil, fmt.Errorf("artifact: reading %s: %w", path, err)
	}
	ps, err := DecodePrior(data)
	if err != nil {
		s.opts.Obs.Counter("artifact.decode_errors").Inc()
		sp.SetAttr("outcome", "error")
		return nil, fmt.Errorf("artifact: %s: %w", path, err)
	}
	if ps.Design != designName {
		// Head-pointer hash collision between two design names.
		sp.SetAttr("outcome", "miss")
		return nil, nil
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	sp.SetAttr("outcome", "hit")
	sp.SetAttr("fingerprint", fmt.Sprintf("%016x", fp))
	return ps, nil
}

// evictLocked brings the store under MaxBytes and sweeps head-pointer
// debris. Requires s.mu held.
//
// Accounting covers everything the store writes: artifact bytes,
// sensitivity-vector bytes, AND head-pointer bytes (SizeBytes reports
// the same set). The pass first
// removes orphaned heads — pointers whose target artifact no longer
// exists, stranded by an earlier eviction or crash; left alone they
// accumulate one per design name forever. Then least-recently-used
// artifacts go (never keep, the entry just written), and each evicted
// artifact takes its now-dangling head pointers with it.
func (s *Store) evictLocked(keep string) {
	type entry struct {
		name  string
		size  int64
		mtime time.Time
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	var files []entry
	var total int64
	live := make(map[string]bool)         // artifact file names present
	headsFor := make(map[string][]string) // artifact file name → head file names
	headSize := make(map[string]int64)
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		switch filepath.Ext(de.Name()) {
		case ext:
			files = append(files, entry{name: de.Name(), size: info.Size(), mtime: info.ModTime()})
			live[de.Name()] = true
			total += info.Size()
		case sensExt:
			// Sensitivity vectors join the same LRU as artifacts: counted
			// against MaxBytes, evicted by age, no head bookkeeping.
			files = append(files, entry{name: de.Name(), size: info.Size(), mtime: info.ModTime()})
			total += info.Size()
		case headExt:
			headSize[de.Name()] = info.Size()
			total += info.Size()
		}
	}
	for head := range headSize {
		target := ""
		if data, err := os.ReadFile(filepath.Join(s.dir, head)); err == nil {
			if fp, ok := parseHead(data); ok {
				target = fmt.Sprintf("%016x%s", fp, ext)
			}
		}
		if target == "" || !live[target] {
			// Orphaned (dangling or unreadable) head: its artifact is gone,
			// so the breadcrumb leads nowhere. Sweep it.
			if os.Remove(filepath.Join(s.dir, head)) == nil {
				total -= headSize[head]
				s.opts.Obs.Counter("artifact.head_evictions").Inc()
			}
			continue
		}
		headsFor[target] = append(headsFor[target], head)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		if total <= s.opts.MaxBytes {
			break
		}
		if f.name == keep {
			continue
		}
		if os.Remove(filepath.Join(s.dir, f.name)) == nil {
			total -= f.size
			s.opts.Obs.Counter("artifact.evictions").Inc()
			// The artifact is gone; its heads now dangle. Take them too so
			// the next pass (and SizeBytes) never sees them.
			for _, head := range headsFor[f.name] {
				if os.Remove(filepath.Join(s.dir, head)) == nil {
					total -= headSize[head]
					s.opts.Obs.Counter("artifact.head_evictions").Inc()
				}
			}
		}
	}
}

// Len reports the number of artifacts currently stored (head pointers
// are bookkeeping, not artifacts, and are not counted).
func (s *Store) Len() int {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, de := range ents {
		if !de.IsDir() && filepath.Ext(de.Name()) == ext {
			n++
		}
	}
	return n
}

// SizeBytes reports the store's total size on disk: artifacts,
// sensitivity vectors, and head pointers — the same set eviction
// accounts against MaxBytes.
func (s *Store) SizeBytes() int64 {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		switch filepath.Ext(de.Name()) {
		case ext, headExt, sensExt:
			if info, err := de.Info(); err == nil {
				total += info.Size()
			}
		}
	}
	return total
}

// GetPlan and PutPlan make *Store a sweep.PlanStore: the engine's
// second-level cache behind its in-memory LRU. GetPlan maps decode
// failures to errors (the engine counts them and recompiles) and clean
// misses to (nil, nil). The context carries the request's trace state
// so the restore span lands under the engine's "sweep.plan" span.
func (s *Store) GetPlan(ctx context.Context, res *core.Result) (*sweep.Plan, error) {
	_, plan, err := s.GetContext(ctx, res.Analyzer)
	return plan, err
}

// PutPlan persists the compiled plan (with its source result) under the
// design fingerprint.
func (s *Store) PutPlan(res *core.Result, p *sweep.Plan) error {
	return s.Put(res, p)
}
