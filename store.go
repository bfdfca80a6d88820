package mosaic

import "github.com/mosaic-hpc/mosaic/internal/store"

// Result store, re-exported. The store gives corpus analysis a durable
// memory: traces are content-addressed (SHA-256 of their canonical
// binary encoding) and results are keyed by (trace address, Config
// fingerprint), so a repeat run over an unchanged corpus under
// unchanged thresholds skips categorization entirely — the warm-start
// path of cmd/mosaic -store, and the backbone of mosaic-serve.
type (
	// Store is the durable content-addressed trace/result store.
	Store = store.Store
	// StoreOptions tunes segment size, read-cache budget and fsync.
	StoreOptions = store.Options
	// StoreStats is a point-in-time view of store contents and cache
	// effectiveness.
	StoreStats = store.Stats
	// TraceID is the content address of a trace (SHA-256 hex digest).
	TraceID = store.TraceID
	// CachingExecutor wraps the in-process categorizer with store
	// lookup/write-back; Options.Store installs one automatically.
	CachingExecutor = store.CachingExecutor
)

// OpenStore opens (or creates) a result store rooted at dir with
// default options. The store recovers crash-torn segment tails
// automatically; Close it when done.
func OpenStore(dir string) (*Store, error) { return store.Open(dir, store.Options{}) }

// OpenStoreOptions is OpenStore with explicit tuning.
func OpenStoreOptions(dir string, o StoreOptions) (*Store, error) { return store.Open(dir, o) }

// TraceKey computes the content address of a trace (and its canonical
// binary encoding) without storing it.
func TraceKey(j *Job) (TraceID, []byte, error) { return store.TraceKey(j) }
