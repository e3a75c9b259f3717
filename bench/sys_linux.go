package main

import (
	"fmt"
	"syscall"
)

// filesystemOf names the filesystem holding dir: fsync cost on tmpfs or
// overlayfs says nothing about a disk, so serve_durable's numbers are only
// comparable between runs on the same kind.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// cpuMicros returns the process's user+system CPU time in microseconds.
func cpuMicros() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return (ru.Utime.Sec+ru.Stime.Sec)*1e6 + int64(ru.Utime.Usec) + int64(ru.Stime.Usec)
}
