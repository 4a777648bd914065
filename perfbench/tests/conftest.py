from perfbench.common import require_program

require_program()
