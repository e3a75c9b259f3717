//go:build linux

package wal

import (
	"os"
	"syscall"
)

// datasync flushes f's data, and of its metadata only what reading that
// data back needs — a changed length, not a changed mtime.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err == nil {
			return nil
		}
		if err != syscall.EINTR {
			return os.NewSyscallError("fdatasync", err)
		}
	}
}
