package simstar

import (
	"maps"
	"strings"
	"testing"
)

// RegisterForTest is Register scoped to one test: when t ends, the entry
// name had before — or its absence — is restored, so a test's measure
// never leaks into a later test, a shuffled order or a second -count pass.
func RegisterForTest(t testing.TB, name string, f Factory) {
	restoreAtCleanup(t, registry.factories, strings.ToLower(name))
	Register(name, f)
}

// RegisterAliasForTest is RegisterAlias scoped to one test, restored the
// same way.
func RegisterAliasForTest(t testing.TB, alias, name string) {
	restoreAtCleanup(t, registry.aliases, strings.ToLower(alias))
	RegisterAlias(alias, name)
}

// AliasesForTest returns every registered alias and the name it resolves
// to, so a test can check that it covers each one.
func AliasesForTest() map[string]string {
	registry.RLock()
	defer registry.RUnlock()
	return maps.Clone(registry.aliases)
}

// restoreAtCleanup records m[key], or its absence, and puts it back when t
// ends, bumping the registry generation as register does so no cache entry
// computed under the test's registration can match afterwards.
func restoreAtCleanup[V any](t testing.TB, m map[string]V, key string) {
	registry.RLock()
	prev, had := m[key]
	registry.RUnlock()
	t.Cleanup(func() {
		registry.Lock()
		defer registry.Unlock()
		if had {
			m[key] = prev
		} else {
			delete(m, key)
		}
		regGen.Add(1)
	})
}
