package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"syscall"
	"time"
)

// hostFacts ride on every result file next to calib.kernel_ms, so a reader
// comparing two files can tell a slower host from a slower program.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// RcvBuf is what the kernel grants a UDP socket that asks for the
	// daemon's default 4 MB receive buffer (rmem_max may clamp it).
	RcvBuf int `json:"so_rcvbuf_effective"`
	// CheckpointFS is the filesystem the snapshots are fsynced to.
	CheckpointFS string `json:"checkpoint_fs"`
}

func gatherHostFacts(outDir string) hostFacts {
	return hostFacts{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		RcvBuf:       effectiveRcvBuf(4 << 20),
		CheckpointFS: fsName(outDir),
	}
}

func effectiveRcvBuf(ask int) int {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0
	}
	defer c.Close()
	_ = c.SetReadBuffer(ask) // best effort, exactly as the daemon asks
	raw, err := c.SyscallConn()
	if err != nil {
		return 0
	}
	got := 0
	_ = raw.Control(func(fd uintptr) {
		got, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	})
	return got
}

var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}

func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// exclusive refuses to run on a host where the numbers would be fiction:
// one CPU (sender and daemon would time-slice), or another bench process
// already measuring (contention has faked +50-500% regressions here). The
// lock is a Linux abstract-namespace socket: host-wide, no file, released
// by the kernel when the process ends. The returned func releases it.
func exclusive() (release func(), err error) {
	if runtime.NumCPU() < 2 {
		return nil, fmt.Errorf("refusing to run: %d CPU visible; the sender and the daemon need one each", runtime.NumCPU())
	}
	ln, err := net.Listen("unix", "@netwide-bench-lock")
	if err != nil {
		if errors.Is(err, syscall.EADDRINUSE) {
			return nil, errors.New("refusing to run: another bench process is running on this host; two at once fake regressions")
		}
		return func() {}, nil // no abstract sockets here: run unlocked
	}
	return func() { ln.Close() }, nil
}

// calibKernel times a fixed pure-Go kernel — a naive 256x256 float64
// matrix product and an 8 MB copy — so readers can tell a slower host from
// a slower program. Median of five, in milliseconds. (Dividing the
// end-to-end metrics by it was tried and dropped: over a day's runs the
// kernel slowed 1.35x in spells where the batch pipeline slowed 1.7x, and
// also in spells where nothing else slowed at all.)
func calibKernel() float64 {
	const n = 256
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], b[i] = float64(i%7)+0.5, float64(i%5)-1.5
	}
	src, dst := make([]byte, 8<<20), make([]byte, 8<<20)
	var ms []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += a[i*n+k] * b[k*n+j]
				}
				c[i*n+j] = s
			}
		}
		copy(dst, src)
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	src[0] = dst[0] + byte(c[0]) // keep the work observable
	return median(ms)
}
