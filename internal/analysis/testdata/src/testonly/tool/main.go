package main

import (
	"fmt"

	"github.com/uav-coverage/uavnet/testonlyfix/internal/lib"
)

func main() { fmt.Println(lib.UsedByTool()) }
