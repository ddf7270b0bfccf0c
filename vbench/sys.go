package main

import (
	"fmt"
	"syscall"

	"approxcode/internal/gf256"
)

func gf256Kernel() string { return gf256.Kernel() }

// fsNames maps statfs(2) magic numbers to the filesystems a journal
// is likely to land on.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x2FC12FC1: "zfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// peakRSSMB is the process's resident-set high-water mark in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
