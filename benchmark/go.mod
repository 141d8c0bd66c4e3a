module gravel/benchmark

go 1.24

require gravel v0.0.0

replace gravel => ../
