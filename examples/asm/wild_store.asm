# A guest store far outside the 8 MiB of simulated memory. Every runner
# must turn it into a typed fault: `mdabench run` prints a one-line
# diagnostic and exits 3, and under `serve` only the offending session
# faults. No .base: the code lands at the default 0x1000.
        movl $0x7FFFFFF0, %ebx
        movl %eax, (%ebx)
        hlt
