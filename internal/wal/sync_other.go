//go:build !linux

package wal

import "os"

// datasync has no portable data-only form: a full fsync is the fallback.
func datasync(f *os.File) error { return f.Sync() }
