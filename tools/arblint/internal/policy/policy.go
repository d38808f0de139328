// Package policy is arblint's package-policy table: one place that records
// which Arboretum packages each invariant applies to. Analyzers consult it
// instead of hard-coding path lists, and docs/ANALYSIS.md documents every
// entry; changing the policy is a reviewed one-line diff here.
//
// Keys are module-relative package paths ("internal/ahe"). Matching is by
// exact path or by "/"-boundary suffix, so the table applies equally to the
// real packages ("arboretum/internal/ahe") and to analyzer testdata packages
// (".../testdata/src/internal/ahe"), and survives a module rename.
package policy

import "strings"

// Set is a set of module-relative package paths.
type Set map[string]bool

// Match returns the key of s that pkgPath falls under, or "".
func (s Set) Match(pkgPath string) string {
	for key := range s {
		if pkgPath == key || strings.HasSuffix(pkgPath, "/"+key) {
			return key
		}
	}
	return ""
}

// Matches reports whether pkgPath falls under any key of s.
func (s Set) Matches(pkgPath string) bool { return s.Match(pkgPath) != "" }

// FuncIn reports whether the function name defined in package pkgPath falls
// under a pkg→names table, with Set's suffix matching on the package key.
func FuncIn(table map[string]map[string]bool, pkgPath, name string) bool {
	for key, names := range table {
		if (pkgPath == key || strings.HasSuffix(pkgPath, "/"+key)) && names[name] {
			return true
		}
	}
	return false
}

// SecrecyCritical lists the packages whose randomness feeds secrets — keys,
// shares, proofs, sortition tickets, DP noise. math/rand is banned there
// (randsource): its output is predictable from a small seed, which breaks
// both secrecy and the unpredictability the DP mechanisms assume. The
// simulation's deliberately deterministic draws carry
// //arblint:ignore randsource annotations so every exception is explicit.
var SecrecyCritical = Set{
	"internal/ahe":       true,
	"internal/bgv":       true,
	"internal/shamir":    true,
	"internal/mpc":       true,
	"internal/zkp":       true,
	"internal/vsr":       true,
	"internal/sortition": true,
	"internal/mechanism": true,
	"internal/runtime":   true,
	"internal/faults":    true,
	// The gateway mints job IDs analysts cannot be allowed to predict.
	"internal/service": true,
}

// SimulationExempt lists SecrecyCritical packages that are pure simulation
// machinery: their randomness decides which *injected faults* fire, never key
// material, shares, or noise, and replayability from a small seed is the
// whole point (docs/FAULTS.md). The randsource math/rand ban is lifted there
// wholesale — no per-site //arblint:ignore needed — so fault-schedule code
// stays readable while the policy table still records the exception
// explicitly.
var SimulationExempt = Set{
	"internal/faults": true,
}

// DeterministicBench lists the packages whose *bench_test.go files must not
// draw from crypto/rand (randsource): scripts/bench.sh tracks kernel timings
// across commits in BENCH_kernels.json, and nondeterministic benchmark
// inputs (key material, polynomial coefficients) add run-to-run noise to the
// numbers being compared. Benchmarks there use internal/benchrand instead.
var DeterministicBench = Set{
	"internal/ahe": true,
	"internal/bgv": true,
}

// NoiseSource is the package whose noise constructors budgetflow guards.
const NoiseSource = "internal/mechanism"

// NoiseConstructors are the internal/mechanism entry points that draw DP
// noise or sampling randomness. Calling one adds privacy loss, so every call
// site must be covered by internal/privacy's budget accounting (the §4.2
// certification step) — which is why budgetflow restricts callers to
// BudgetApprovedCallers.
var NoiseConstructors = map[string]bool{
	"Laplace":       true,
	"Gumbel":        true,
	"NewSampleBins": true,
}

// BudgetApprovedCallers are the packages allowed to call NoiseConstructors:
// the mechanism package itself, the certification/budget layer, and the
// runtime, whose Deployment.Run charges the certificate against the budget
// before any vignette executes.
var BudgetApprovedCallers = Set{
	"internal/mechanism": true,
	"internal/privacy":   true,
	"internal/runtime":   true,
}

// PoolOnly lists the packages whose fan-out must go through the
// internal/parallel worker pool (rawgo): raw go statements and ad-hoc
// sync.WaitGroup fan-out there would escape the pool's determinism
// guarantees and the worker-count matrix the race pass covers (see
// docs/CONCURRENCY.md). internal/service joined with the gateway: its two
// daemon-lifecycle goroutines (executor-pool supervisor, per-job watchdog)
// carry //arblint:ignore annotations recording why each is outside the pool.
var PoolOnly = Set{
	"internal/ahe":     true,
	"internal/bgv":     true,
	"internal/runtime": true,
	"internal/planner": true,
	"internal/mpc":     true,
	"internal/service": true,
}

// MustCheckErrors lists the packages whose error returns may not be
// discarded (errdiscard): crypto, marshal, MPC, and pool APIs, where a
// swallowed error means silently wrong ciphertexts, shares, or sums.
// "crypto/rand" and "hash" cover rand.Read and hash.Hash.Write call sites in
// the standard library.
var MustCheckErrors = Set{
	"internal/ahe":       true,
	"internal/bgv":       true,
	"internal/shamir":    true,
	"internal/mpc":       true,
	"internal/merkle":    true,
	"internal/zkp":       true,
	"internal/vsr":       true,
	"internal/mechanism": true,
	"internal/parallel":  true,
	"internal/privacy":   true,
	"internal/sortition": true,
	"crypto/rand":        true,
	"hash":               true,
	// Durability layer: a discarded wal.Append or ledger error is a
	// silently-lost durability guarantee.
	"internal/wal":     true,
	"internal/ledger":  true,
	"internal/service": true,
}

// MarshalMethods are method names whose error results may never be
// discarded regardless of the receiver's package: a dropped (un)marshal
// error turns into a corrupted wire object far from the cause.
var MarshalMethods = map[string]bool{
	"MarshalBinary":   true,
	"UnmarshalBinary": true,
	"AppendBinary":    true,
}

// ReleaseBoundaries lists the packages where values leave the platform:
// the gateway's JSON responses and result digests, and the CLIs' stdout.
// noiserelease taints raw-aggregate producers there and requires every flow
// into an output sink to pass through a noise mechanism or the runtime's
// certified Run — the static complement of internal/privacy's runtime
// certifier (PAPER.md §3, §5).
var ReleaseBoundaries = Set{
	"internal/service": true,
	"cmd/arboretum":    true,
	"cmd/arboretumd":   true,
}

// RawAggregateSources maps a package to the functions whose results are
// pre-noise aggregates: decrypted homomorphic sums and reconstructed
// secret-shared values. These are the §5 intermediate values nothing may
// release un-noised.
var RawAggregateSources = map[string]map[string]bool{
	"internal/ahe":    {"Decrypt": true, "Sum": true},
	"internal/bgv":    {"Decrypt": true},
	"internal/shamir": {"Reconstruct": true},
}

// ReleaseSanitizers maps a package to the functions whose results are
// certified released values: the runtime's Run and RunPlan (Run with the
// plan made elsewhere) execute the full certify → noise → release pipeline,
// so their outputs are safe to encode.
var ReleaseSanitizers = map[string]map[string]bool{
	"internal/runtime": {"Run": true, "RunPlan": true},
}

// SecretTypes maps a package to the named types whose whole values are
// cryptographic secrets: secretflow bans any flow from them into error
// strings, logs, or encoders, in every package. Field projection is
// deliberately exempt (a Share's evaluation point is public; its value is
// not reachable without projecting the whole struct into a format verb).
var SecretTypes = map[string]map[string]bool{
	"internal/ahe":    {"PrivateKey": true},
	"internal/bgv":    {"SecretKey": true},
	"internal/shamir": {"Share": true},
	"internal/vsr":    {"Dealing": true},
}

// AliasProne maps a package to the named types whose values alias pooled or
// otherwise recycled memory: a fixed.Slab checked out of a SlabPool is
// returned to the pool and handed to the next operation, and a bgv.Poly may
// be a view into a pooled scratch slab. bigintalias extends its
// no-uncopied-boundary-crossing rule from *big.Int to these types — an
// exported function that returns such a field of its receiver or parameters,
// or stores a caller's value into one, must copy first (or annotate the
// documented ownership transfer with //arblint:ignore bigintalias).
var AliasProne = map[string]map[string]bool{
	"internal/bgv":   {"Poly": true},
	"internal/fixed": {"Slab": true},
}

// CheckpointFuncs maps a package to the "Type.method" (or plain function)
// names of its unbounded hot loops: the ingest shard driver and the
// interpreter's vignette/statement loops, which PR 8's per-job deadlines
// rely on to observe cancellation. ctxcheckpoint requires each listed
// function to exist and to contain a loop with a cancellation checkpoint
// (a ctx.Done select, a ctx.Err poll, or a call reaching one), so the
// deadline machinery cannot silently rot out of these paths.
var CheckpointFuncs = map[string][]string{
	"internal/runtime": {"ingestSpec.runShard", "interp.runVignette", "interp.run"},
}

// WALClients lists the packages that own a write-ahead log through
// internal/wal — one: the ledger is the gateway's only durable file.
// walorder enforces fsync-before-apply from the client side: the
// durable-state fields its apply callback maintains may not be mutated on
// any path that precedes a WAL append or rewrite — disk is never behind
// memory (docs/FAULTS.md).
var WALClients = Set{
	"internal/ledger": true,
}

// Unregulated lists the internal packages the policy table deliberately
// leaves outside every analyzer-scoping set, each with a reason. The policy
// regression test fails when a package is neither governed nor listed here,
// so adding a package forces an explicit policy decision.
var Unregulated = Set{
	"internal/baseline":  true, // reference implementations, compared against, never released
	"internal/benchrand": true, // deterministic bench inputs by design (see DeterministicBench)
	"internal/costmodel": true, // pure arithmetic over plan shapes; no secrets, no I/O
	"internal/eval":      true, // offline accuracy-evaluation harness, not a release path
	"internal/hashing":   true, // keyed device-row hashing; error discipline via the stdlib "hash" entry
	"internal/lang":      true, // DSL parser/AST; pure syntax
	"internal/plan":      true, // plan IR and variant expansion; pure data
	"internal/queries":   true, // query catalogue; static text
	"internal/types":     true, // shared value types; pure data
}
