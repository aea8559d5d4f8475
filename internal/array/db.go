package array

import (
	"fmt"
	"sync"
)

// Database is a catalog of named arrays plus a registry of UDFs, playing the
// role of the SciDB instance in the paper's architecture. It is safe for
// concurrent use.
type Database struct {
	mu     sync.RWMutex
	arrays map[string]*Array
	udfs   map[string]UDF
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{
		arrays: make(map[string]*Array),
		udfs:   make(map[string]UDF),
	}
}

// Store registers an array under name, replacing any previous binding.
func (db *Database) Store(name string, a *Array) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.arrays[name] = a.Rename(name)
}

// Get returns the array bound to name.
func (db *Database) Get(name string) (*Array, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	a, ok := db.arrays[name]
	if !ok {
		return nil, fmt.Errorf("array: no array named %q", name)
	}
	return a, nil
}

// Remove drops the array bound to name. Removing an absent name is a no-op.
func (db *Database) Remove(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.arrays, name)
}

// RegisterUDF makes fn callable from AFL queries under the given name,
// the equivalent of loading a user-defined function plugin into SciDB.
func (db *Database) RegisterUDF(name string, fn UDF) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.udfs[name] = fn
}

// UDF looks up a registered user-defined function.
func (db *Database) UDF(name string) (UDF, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	fn, ok := db.udfs[name]
	if !ok {
		return nil, fmt.Errorf("array: no UDF named %q", name)
	}
	return fn, nil
}
