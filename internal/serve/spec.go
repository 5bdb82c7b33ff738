// Job specifications: what a client submits to the partition-synthesis
// service. A spec carries the gate-level netlist (bench format, inline)
// and the synthesis options the iddqpart CLI exposes, validated into the
// same core.Options the CLI builds. Every parse or validation failure
// wraps ErrSpec with the offending field named — the submission surface
// never panics on client input (FuzzJobSpec enforces this).

package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"iddqsyn/internal/bench"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/core"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/partition"
)

// ErrSpec is wrapped by every job-spec parse or validation failure, so
// the submission handler can classify "client sent a bad spec" (400)
// apart from server-side failures with errors.Is.
var ErrSpec = errors.New("serve: invalid job spec")

// Submission limits: a spec beyond these bounds is rejected at the door,
// before any synthesis work is admitted.
const (
	// MaxNetlistBytes bounds the inline netlist text.
	MaxNetlistBytes = 4 << 20
	// MaxSpecGenerations bounds the requested generation budget.
	MaxSpecGenerations = 100000
	// MaxSpecTimeout bounds the requested per-job wall-clock budget.
	MaxSpecTimeout = time.Hour
)

// JobSpec is one synthesis request. The zero values select the same
// defaults as the iddqpart CLI: the evolution method, the built-in cell
// library, estimated module size, d = 10 and seed 1.
type JobSpec struct {
	// Netlist is the gate-level circuit in bench format, inline.
	Netlist string `json:"netlist"`
	// Name optionally overrides the circuit name for reports.
	Name string `json:"name,omitempty"`
	// Method is "evolution" (default) or "standard".
	Method string `json:"method,omitempty"`
	// ModuleSize fixes the module size (0 = estimate, §4.2).
	ModuleSize int `json:"module_size,omitempty"`
	// Modules overrides ModuleSize for the standard method.
	Modules int `json:"modules,omitempty"`
	// Generations overrides the evolution generation budget (0 = default).
	Generations int `json:"generations,omitempty"`
	// Seed seeds the evolution strategy (0 = 1, the CLI default).
	Seed int64 `json:"seed,omitempty"`
	// Discriminability is the required d (0 = 10, the paper's value).
	Discriminability float64 `json:"discriminability,omitempty"`
	// Timeout is the per-job wall-clock budget as a Go duration string
	// ("30s", "5m"); empty selects the server's default budget.
	Timeout string `json:"timeout,omitempty"`
	// Tenant names the submitting tenant for fair queueing. It is
	// advisory (the X-Tenant header overrides it) and excluded from the
	// content hash: two tenants submitting the identical job share its
	// result.
	Tenant string `json:"tenant,omitempty"`
}

// ParseJobSpec parses a submission body. A JSON content type (or a body
// that starts with '{') is decoded strictly — unknown fields are spec
// errors, catching typoed option names instead of silently ignoring
// them. Any other body is taken as a raw bench netlist with default
// options, so `curl --data-binary @circuit.bench` works from scripts.
func ParseJobSpec(contentType string, body []byte) (*JobSpec, error) {
	spec := &JobSpec{}
	trimmed := strings.TrimSpace(string(body))
	if strings.Contains(contentType, "json") || strings.HasPrefix(trimmed, "{") {
		dec := json.NewDecoder(strings.NewReader(trimmed))
		dec.DisallowUnknownFields()
		if err := dec.Decode(spec); err != nil {
			return nil, fmt.Errorf("%w: body: %w", ErrSpec, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("%w: body: trailing data after the spec object", ErrSpec)
		}
	} else {
		spec.Netlist = trimmed
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// Validate checks every field against the submission limits and parses
// the netlist. It returns nil only for a spec the synthesis pipeline
// can run.
func (s *JobSpec) Validate() error {
	if _, err := s.Circuit(); err != nil {
		return err
	}
	if m := s.Method; m != "" && m != "evolution" && m != "standard" {
		return fmt.Errorf("%w: method %q (want evolution or standard)", ErrSpec, m)
	}
	switch {
	case s.ModuleSize < 0:
		return fmt.Errorf("%w: module_size %d is negative", ErrSpec, s.ModuleSize)
	case s.Modules < 0:
		return fmt.Errorf("%w: modules %d is negative", ErrSpec, s.Modules)
	case s.Generations < 0 || s.Generations > MaxSpecGenerations:
		return fmt.Errorf("%w: generations %d outside [0, %d]", ErrSpec, s.Generations, MaxSpecGenerations)
	case s.Discriminability < 0:
		return fmt.Errorf("%w: discriminability %g is negative", ErrSpec, s.Discriminability)
	}
	if _, err := s.JobTimeout(); err != nil {
		return err
	}
	return nil
}

// Circuit parses the spec's netlist.
func (s *JobSpec) Circuit() (*circuit.Circuit, error) {
	if strings.TrimSpace(s.Netlist) == "" {
		return nil, fmt.Errorf("%w: empty netlist", ErrSpec)
	}
	if len(s.Netlist) > MaxNetlistBytes {
		return nil, fmt.Errorf("%w: netlist is %d bytes (limit %d)", ErrSpec, len(s.Netlist), MaxNetlistBytes)
	}
	name := s.Name
	if name == "" {
		name = "job"
	}
	c, err := bench.Read(strings.NewReader(s.Netlist), name)
	if err != nil {
		return nil, fmt.Errorf("%w: netlist: %w", ErrSpec, err)
	}
	if s.Name != "" {
		// A client-chosen name lands in file-adjacent report text; keep it
		// boring.
		if len(s.Name) > 128 || strings.ContainsAny(s.Name, "/\\\n\r\t ") {
			return nil, fmt.Errorf("%w: name %q (too long or contains separators)", ErrSpec, s.Name)
		}
	}
	return c, nil
}

// JobTimeout parses the per-job budget ("" = 0 = the server default).
func (s *JobSpec) JobTimeout() (time.Duration, error) {
	if s.Timeout == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s.Timeout)
	if err != nil {
		return 0, fmt.Errorf("%w: timeout %q: %w", ErrSpec, s.Timeout, err)
	}
	if d <= 0 || d > MaxSpecTimeout {
		return 0, fmt.Errorf("%w: timeout %s outside (0, %s]", ErrSpec, d, MaxSpecTimeout)
	}
	return d, nil
}

// Options builds the core.Options the job runs under. The caller owns
// run control (Control, Obs, Chaos, Degrade) — Options covers only what
// the spec itself determines. Validate must have passed.
func (s *JobSpec) Options() (core.Options, error) {
	opt := core.Options{ModuleSize: s.ModuleSize, Modules: s.Modules}
	if s.Method == "standard" {
		opt.Method = core.MethodStandard
	}
	eprm := evolution.DefaultParams()
	eprm.Seed = s.Seed
	if s.Seed == 0 {
		eprm.Seed = 1
	}
	if s.Generations > 0 {
		eprm.MaxGenerations = s.Generations
	}
	opt.Evolution = &eprm
	if s.Discriminability > 0 {
		cons := partition.DefaultConstraints()
		cons.MinDiscriminability = s.Discriminability
		opt.Constraints = &cons
	}
	return opt, nil
}

// Hash is the spec's content hash: sha256 over the circuit fingerprint
// (structural — whitespace, comments and line order in the netlist do
// not matter) and every result-determining option, canonicalized so a
// defaulted field hashes identically to its explicit default. Tenant
// and Name are excluded, so identical work submitted by different
// tenants or under different labels dedupes onto one job. Job IDs are
// derived from this hash, which is what makes the results cache fall
// out of the ID scheme instead of needing one of its own.
func (s *JobSpec) Hash() (string, error) {
	c, err := s.Circuit()
	if err != nil {
		return "", err
	}
	// Canonicalize before hashing: Options()/the runtime treat the zero
	// value and the explicit default identically, so the hash must too or
	// semantically identical submissions would split the dedupe cache.
	method := s.Method
	if method == "" {
		method = "evolution"
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	gens := s.Generations
	if gens == 0 {
		gens = evolution.DefaultParams().MaxGenerations
	}
	d := s.Discriminability
	if d == 0 {
		d = partition.DefaultConstraints().MinDiscriminability
	}
	// Normalize the duration spelling ("60s" == "1m"). An empty Timeout
	// stays empty: it means "the server's default budget at run time",
	// which is config-dependent, not a fixed duration.
	timeout := s.Timeout
	if td, perr := time.ParseDuration(timeout); timeout != "" && perr == nil {
		timeout = td.String()
	}
	h := sha256.New()
	fmt.Fprintf(h, "v1\n%s\n", bench.Fingerprint(c))
	fmt.Fprintf(h, "method=%s size=%d modules=%d gens=%d seed=%d d=%g timeout=%s\n",
		method, s.ModuleSize, s.Modules, gens, seed, d, timeout)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// JobID derives the job's identifier from the content hash.
func (s *JobSpec) JobID() (string, error) {
	h, err := s.Hash()
	if err != nil {
		return "", err
	}
	return "j" + h[:16], nil
}
