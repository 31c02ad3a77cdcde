package simstar

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Factory instantiates a Measure with the given options. Factories rather
// than instances are registered so each caller binds its own parameters.
type Factory func(opts ...Option) Measure

// regEntry is one registered factory plus, for this package's fast-path
// measures, the family's row of the kernel table (kernels.go). A user
// re-registration of a built-in name stores no row, so the engine serves
// the override instead of the built-in kernel.
type regEntry struct {
	f       Factory
	kernels *kernelFamily
}

var registry = struct {
	sync.RWMutex
	factories map[string]regEntry
	aliases   map[string]string
}{
	factories: make(map[string]regEntry),
	aliases:   make(map[string]string),
}

// regGen counts registry mutations. Engine result caches fold the current
// generation into their keys, so re-registering a name (or re-pointing an
// alias) can never serve a result computed by the previous implementation.
var regGen atomic.Uint64

func registryGeneration() uint64 { return regGen.Load() }

// Register adds a measure factory under a name (case-insensitive). Tools
// and servers select measures by these names; registering an existing name
// replaces the previous factory, so applications may override built-ins.
func Register(name string, f Factory) {
	if f == nil {
		panic("simstar: Register with nil factory")
	}
	register(name, regEntry{f: f})
}

// registerBuiltin registers one of this package's fast-path measures: the
// entry carries the family's kernel row, and its factory returns a
// rowMeasure over that row.
func registerBuiltin(name string, k *kernelFamily) {
	f := func(opts ...Option) Measure {
		return &rowMeasure{name: name, cfg: buildConfig(opts), k: k}
	}
	register(name, regEntry{f: f, kernels: k})
}

func register(name string, e regEntry) {
	registry.Lock()
	defer registry.Unlock()
	registry.factories[strings.ToLower(name)] = e
	regGen.Add(1)
}

// RegisterAlias makes alias resolve to the measure registered under name.
func RegisterAlias(alias, name string) {
	registry.Lock()
	defer registry.Unlock()
	registry.aliases[strings.ToLower(alias)] = strings.ToLower(name)
	regGen.Add(1)
}

// canonical resolves aliases and case to the registered name.
func canonical(name string) string {
	n := strings.ToLower(name)
	registry.RLock()
	defer registry.RUnlock()
	if target, ok := registry.aliases[n]; ok {
		return target
	}
	return n
}

// Lookup instantiates the measure registered under name (or one of its
// aliases) with the given options.
func Lookup(name string, opts ...Option) (Measure, error) {
	key := canonical(name)
	registry.RLock()
	e, ok := registry.factories[key]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("simstar: unknown measure %q (have: %s)", name, strings.Join(Names(), ", "))
	}
	return e.f(opts...), nil
}

// Names returns the registered canonical measure names, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.factories))
	for n := range registry.factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
