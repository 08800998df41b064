package disk

// CostModel converts simulated disk accesses into time, so workload
// simulators (find, desktop-search crawls) can report relative performance
// that reflects seeks versus sequential transfer, which is what Figure 1 of
// the paper measures on a real disk.
//
// The defaults approximate a 7200 RPM SATA disk of the paper's era: ~8 ms
// average seek (including rotational latency) and ~60 MB/s sequential
// transfer.
type CostModel struct {
	// SeekMs is the cost in milliseconds of one non-contiguous access.
	SeekMs float64
	// TransferMsPerBlock is the cost in milliseconds of transferring one
	// block once positioned.
	TransferMsPerBlock float64
	// MetadataMs is the cost of one metadata lookup (directory entry or
	// inode) that misses the cache.
	MetadataMs float64
}

// DefaultCostModel returns the default disk cost model (4 KB blocks).
func DefaultCostModel() CostModel {
	return CostModel{
		SeekMs:             8.0,
		TransferMsPerBlock: 4096.0 / (60 * 1024 * 1024) * 1000, // ≈0.065 ms/block
		MetadataMs:         0.8,
	}
}

// ReadBytesCostApprox returns the simulated time to read n contiguous bytes
// assuming the default block size, without needing a Disk instance.
func (c CostModel) ReadBytesCostApprox(n int64) float64 {
	blocks := (n + DefaultBlockSize - 1) / DefaultBlockSize
	if blocks < 1 {
		blocks = 1
	}
	return c.SeekMs + float64(blocks)*c.TransferMsPerBlock
}
